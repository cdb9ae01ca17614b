//! Graph substrate for Byzantine-resilient counting.
//!
//! This crate provides everything the counting protocols of
//! Chatterjee–Pandurangan–Robinson (ICDCS 2022) need from graph theory:
//!
//! * a compact, immutable [`Graph`] representation (CSR adjacency) that
//!   supports the multigraphs produced by random regular graph models,
//! * the random graph models the paper analyses — most importantly the
//!   [`H(n,d)` permutation model](gen::hamiltonian) (union of `d/2` random
//!   Hamiltonian cycles), together with the configuration model, uniform
//!   simple `d`-regular graphs, Watts–Strogatz small worlds, and a set of
//!   low-expansion counterexample topologies,
//! * structural analysis used by the algorithms and the experiments:
//!   BFS/balls/diameter, connected components, exact vertex expansion (for
//!   small vertex sets), a spectral toolkit (power iteration, spectral gap,
//!   Fiedler vectors, Cheeger sweep cuts), the paper's "locally tree-like"
//!   test (Definition 3), and clustering coefficients.
//!
//! # Quick example
//!
//! ```
//! use bcount_graph::gen::hamiltonian;
//! use bcount_graph::analysis::spectral;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), bcount_graph::GraphError> {
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! // An H(n, d) random regular graph: union of d/2 random Hamiltonian cycles.
//! let g = hamiltonian::hnd(512, 8, &mut rng)?;
//! assert!(g.is_regular(8));
//! // Random regular graphs are expanders with high probability.
//! let gap = spectral::spectral_gap(&g, 200);
//! assert!(gap > 0.1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod builder;
pub mod gen;
pub mod graph;
pub mod view;

pub use builder::GraphBuilder;
pub use graph::{Graph, NodeId};
pub use view::TopologyView;

use std::error::Error;
use std::fmt;

/// Errors produced when constructing graphs with invalid parameters.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GraphError {
    /// The requested number of nodes is too small for the requested model.
    TooFewNodes {
        /// Nodes requested.
        n: usize,
        /// Minimum number of nodes the model supports.
        min: usize,
    },
    /// The requested degree is invalid for the requested model.
    InvalidDegree {
        /// Degree requested.
        d: usize,
        /// Human-readable constraint that was violated.
        requirement: &'static str,
    },
    /// A probability parameter was outside `[0, 1]`.
    InvalidProbability {
        /// The offending value.
        p: f64,
    },
    /// Rejection sampling failed to produce a graph within the attempt budget.
    SamplingExhausted {
        /// Number of attempts made.
        attempts: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::TooFewNodes { n, min } => {
                write!(f, "graph model needs at least {min} nodes, got {n}")
            }
            GraphError::InvalidDegree { d, requirement } => {
                write!(f, "invalid degree {d}: {requirement}")
            }
            GraphError::InvalidProbability { p } => {
                write!(f, "probability {p} is outside [0, 1]")
            }
            GraphError::SamplingExhausted { attempts } => {
                write!(f, "rejection sampling failed after {attempts} attempts")
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = GraphError::TooFewNodes { n: 1, min: 3 };
        assert!(e.to_string().contains("at least 3"));
        let e = GraphError::InvalidDegree {
            d: 3,
            requirement: "must be even",
        };
        assert!(e.to_string().contains("must be even"));
        let e = GraphError::InvalidProbability { p: 1.5 };
        assert!(e.to_string().contains("1.5"));
        let e = GraphError::SamplingExhausted { attempts: 10 };
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<GraphError>();
    }
}
