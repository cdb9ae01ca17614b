//! Random and deterministic graph generators.
//!
//! The paper's two algorithms are analysed on two families:
//!
//! * Algorithm 1 (deterministic, LOCAL) works on **any bounded-degree vertex
//!   expander** — we provide the `H(n,d)` model, Watts–Strogatz small
//!   worlds, and supercritical Erdős–Rényi graphs as expanding instances.
//! * Algorithm 2 (randomized, CONGEST) is analysed on the
//!   [`hamiltonian::hnd`] permutation model — the union of `d/2` uniformly
//!   random Hamiltonian cycles — which is contiguous to the configuration
//!   model and therefore to "almost all `d`-regular graphs"
//!   (Greenhill et al., cited as \[22\] in the paper).
//!
//! The impossibility result (Theorem 3) needs **low-expansion**
//! counterexamples; see [`lattice`] (rings, paths, tori) and
//! [`barbell`](mod@barbell).

pub mod barbell;
pub mod classic;
pub mod configuration;
pub mod hamiltonian;
pub mod lattice;
pub mod small_world;

pub use barbell::{barbell, bridged_expanders};
pub use classic::{complete, erdos_renyi, star};
pub use configuration::{configuration_model, random_regular_simple};
pub use hamiltonian::hnd;
pub use lattice::{cycle, path, torus2d};
pub use small_world::watts_strogatz;
