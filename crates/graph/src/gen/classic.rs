//! Classic graph families: complete graphs, stars, and Erdős–Rényi `G(n,p)`.

use rand::Rng;

use crate::{Graph, GraphBuilder, GraphError, NodeId};

/// The complete graph `K_n`.
///
/// Used by tests as a maximal-expansion reference (`h(K_n) ≥ 1`) and to
/// model the complete-network settings of related work (e.g. the Byzantine
/// fault detectors discussed in Section 1.4, where knowing `n` is trivial).
///
/// # Errors
///
/// [`GraphError::TooFewNodes`] if `n < 1`.
pub fn complete(n: usize) -> Result<Graph, GraphError> {
    if n < 1 {
        return Err(GraphError::TooFewNodes { n, min: 1 });
    }
    let mut b = GraphBuilder::with_edge_capacity(n, n * (n - 1) / 2);
    for i in 0..n {
        for j in i + 1..n {
            b.add_edge(NodeId(i as u32), NodeId(j as u32));
        }
    }
    Ok(b.build())
}

/// The star `S_n`: node 0 connected to all others.
///
/// A pathological topology for counting: removing the hub disconnects
/// everything, so a Byzantine hub controls all information flow.
///
/// # Errors
///
/// [`GraphError::TooFewNodes`] if `n < 2`.
pub fn star(n: usize) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(GraphError::TooFewNodes { n, min: 2 });
    }
    let mut b = GraphBuilder::with_edge_capacity(n, n - 1);
    for i in 1..n {
        b.add_edge(NodeId(0), NodeId(i as u32));
    }
    Ok(b.build())
}

/// Erdős–Rényi `G(n, p)`: every pair connected independently with
/// probability `p`.
///
/// Above the connectivity threshold (`p ≥ c·ln n / n`, `c > 1`) these are
/// expanders with high probability, but with **unbounded** maximum degree
/// `Θ(log n / log log n)` — useful as a contrast to the bounded-degree
/// models the paper requires.
///
/// # Errors
///
/// * [`GraphError::TooFewNodes`] if `n < 1`.
/// * [`GraphError::InvalidProbability`] if `p ∉ [0, 1]`.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<Graph, GraphError> {
    if n < 1 {
        return Err(GraphError::TooFewNodes { n, min: 1 });
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidProbability { p });
    }
    // Presize to the expected edge count plus a four-sigma margin; the edge
    // list still grows gracefully in the unlucky tail.
    let pairs = n * (n - 1) / 2;
    let expected = pairs as f64 * p;
    let margin = 4.0 * (expected * (1.0 - p)).sqrt();
    let cap = ((expected + margin) as usize).min(pairs);
    let mut b = GraphBuilder::with_edge_capacity(n, cap);
    for i in 0..n {
        for j in i + 1..n {
            if rng.gen_bool(p) {
                b.add_edge(NodeId(i as u32), NodeId(j as u32));
            }
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn complete_graph() {
        let g = complete(6).unwrap();
        assert!(g.is_regular(5));
        assert_eq!(g.edge_count(), 15);
        assert!(complete(0).is_err());
    }

    #[test]
    fn star_graph() {
        let g = star(5).unwrap();
        assert_eq!(g.degree(NodeId(0)), 4);
        assert_eq!(g.degree(NodeId(1)), 1);
        assert!(star(1).is_err());
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let empty = erdos_renyi(10, 0.0, &mut rng).unwrap();
        assert_eq!(empty.edge_count(), 0);
        let full = erdos_renyi(10, 1.0, &mut rng).unwrap();
        assert_eq!(full.edge_count(), 45);
        assert!(erdos_renyi(10, -0.1, &mut rng).is_err());
    }

    #[test]
    fn erdos_renyi_edge_count_concentrates() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let n = 200;
        let p = 0.05;
        let g = erdos_renyi(n, p, &mut rng).unwrap();
        let expected = (n * (n - 1) / 2) as f64 * p;
        let got = g.edge_count() as f64;
        assert!(
            (got - expected).abs() < 4.0 * expected.sqrt() + 10.0,
            "edges {got} vs expectation {expected}"
        );
    }
}
