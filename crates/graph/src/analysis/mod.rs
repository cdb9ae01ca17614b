//! Structural graph analysis used by the protocols and the experiments.
//!
//! * [`bfs`] — distances, balls, boundaries, eccentricities, diameter.
//! * [`components`] — connected components.
//! * [`expansion`] — vertex boundaries and (exact, small-`n`) vertex
//!   expansion per Definition 1 of the paper.
//! * [`spectral`] — power iteration, spectral gap, Fiedler vectors, and
//!   Cheeger sweep cuts (the tractable stand-in for Algorithm 1's
//!   all-subsets expansion check; see `bcount-core`'s `local::checks`).
//! * [`treelike`] — the "locally tree-like" test of Definition 3.
//! * [`clustering`] — clustering coefficients (the structural property the
//!   prior work \[14\] needed and this paper removes).

pub mod bfs;
pub mod clustering;
pub mod components;
pub mod expansion;
pub mod mixing;
pub mod spectral;
pub mod treelike;

pub use bfs::{ball, boundary, diameter, distances, eccentricity};
pub use clustering::{average_clustering, local_clustering};
pub use components::{connected_components, ConnectedComponents};
pub use expansion::{out_neighbors, set_vertex_expansion, vertex_expansion_exact};
pub use mixing::{mixing_time, mixing_time_from, spectral_mixing_bound};
pub use spectral::{
    fiedler_vector, min_sweep_expansion, spectral_gap, sweep_prefix_expansion, SweepCut,
};
pub use treelike::{is_locally_tree_like, tree_like_count, tree_like_radius};
