//! Byzantine-resilient counting: the two algorithms of
//! Chatterjee–Pandurangan–Robinson (ICDCS 2022).
//!
//! The *Byzantine counting problem* (Definition 2 of the paper) asks that,
//! in a synchronous network of **unknown** size `n` containing up to `B(n)`
//! adversarially placed Byzantine nodes, every honest node irrevocably
//! decide an estimate `L_u` of `log n`, such that all but a small fraction
//! of honest nodes satisfy `c₁·log n ⩽ L_u ⩽ c₂·log n` for fixed constants.
//!
//! This crate provides both of the paper's protocols as
//! [`bcount_sim::Protocol`] implementations, plus the worst-case adversary
//! strategies their analyses reason about:
//!
//! * [`local::LocalCounting`] — the deterministic LOCAL algorithm
//!   (Algorithm 1): grow a neighbourhood view, decide on structural
//!   inconsistency, mute neighbours, or an expansion-check failure.
//!   `O(log n)` rounds, tolerates `n^{1-γ}` Byzantine nodes on any
//!   bounded-degree vertex expander (Theorem 1).
//! * [`congest::CongestCounting`] — the randomized CONGEST algorithm
//!   (Algorithm 2): probe each candidate estimate `i` with random beacon
//!   floods, blacklist beacon paths to defeat Byzantine spam, and decide
//!   when an iteration passes with no acceptable beacon. `O(B(n)·log² n)`
//!   rounds, tolerates `B(n) = n^{1/2-ξ}` Byzantine nodes on `H(n,d)`
//!   random regular graphs (Theorem 2).
//! * [`adversary`] — fake-expander simulation, edge injection, muteness,
//!   beacon spam, path tampering, and the phantom-copy construction of the
//!   impossibility proof (Theorem 3).
//!
//! # Quick example: benign CONGEST counting
//!
//! ```
//! use bcount_core::congest::{CongestCounting, CongestParams};
//! use bcount_core::estimate::Band;
//! use bcount_graph::gen::hnd;
//! use bcount_sim::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
//! let g = hnd(256, 8, &mut rng).unwrap();
//! let params = CongestParams::default();
//! let mut exec = Execution::new(
//!     &g,
//!     &[],
//!     |_, init| CongestCounting::new(params, init),
//!     NullAdversary,
//!     SimConfig { max_rounds: 20_000, ..SimConfig::default() },
//! );
//! let report = exec.run();
//! // Every honest node decided some estimate of log n.
//! assert_eq!(report.honest_decided_count(), 256);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod congest;
pub mod estimate;
pub mod local;

pub use adversary::{
    BeaconSpamAdversary, EdgeInjectorAdversary, FakeExpanderAdversary, PathTamperAdversary,
};
pub use congest::{CongestCounting, CongestEstimate, CongestParams};
pub use estimate::{Band, EstimateReport};
pub use local::{LocalConfig, LocalCounting, LocalEstimate, LocalTrigger};
