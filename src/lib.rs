//! # byzantine-counting
//!
//! A faithful, runnable reproduction of **"Byzantine-Resilient Counting in
//! Networks"** (Chatterjee, Pandurangan, Robinson — ICDCS 2022,
//! [arXiv:2204.11951](https://arxiv.org/abs/2204.11951)): estimating the
//! size of a sparse network from strictly local knowledge while up to
//! `B(n)` adversarially placed Byzantine nodes do their worst.
//!
//! This façade crate re-exports the whole workspace:
//!
//! | Crate | What it provides |
//! |-------|------------------|
//! | [`graph`] | CSR graphs, the `H(n,d)` permutation model and other generators, expansion/spectral/tree-likeness analysis |
//! | [`sim`] | synchronous full-information simulator with authenticated channels and Byzantine adversaries |
//! | [`core`] | the paper's two counting algorithms (deterministic LOCAL, randomized CONGEST) and its worst-case attacks |
//! | [`json`] | hand-rolled dependency-free JSON behind the experiment/bench artifacts |
//! | [`baselines`] | the classical size-estimation protocols of §1.2 and their one-node breaks |
//! | [`apps`] | the §1.1 application: counting → almost-everywhere Byzantine agreement |
//! | [`daemon`] | `bcountd`, the long-lived session server speaking line-delimited `bcountd/v1` JSON |
//!
//! ## Quickstart
//!
//! ```
//! use byzantine_counting::prelude::*;
//! use rand::SeedableRng;
//!
//! // A 256-node random 8-regular network (union of 4 random Hamiltonian
//! // cycles) — an expander with high probability.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let g = hnd(256, 8, &mut rng).unwrap();
//!
//! // Run the CONGEST counting algorithm with 4 Byzantine beacon spammers.
//! let params = CongestParams::default();
//! let byz = [NodeId(0), NodeId(64), NodeId(128), NodeId(192)];
//! let mut sim = Simulation::new(
//!     &g,
//!     &byz,
//!     |_, init| CongestCounting::new(params, init),
//!     BeaconSpamAdversary::new(params),
//!     SimConfig { max_rounds: 30_000, stop_when: StopWhen::AllHonestDecided,
//!                 ..SimConfig::default() },
//! );
//! let report = sim.run();
//!
//! // Most honest nodes decided a constant-factor estimate of ln 256 ≈ 5.5.
//! // (Nodes adjacent to a Byzantine spammer can be strung along forever —
//! // the paper's Remark 1 — so "most", not "all".)
//! let decided = report.honest_decided_count();
//! assert!(decided as f64 >= 0.75 * report.honest_count() as f64);
//! ```
//!
//! See `examples/` for runnable scenarios, the README for the
//! architecture ("The round engine") and the reproduction of every
//! quantitative claim of the paper ("Machine-readable experiment
//! pipeline"), and `PAPER.md` for the source paper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use bcount_apps as apps;
pub use bcount_baselines as baselines;
pub use bcount_core as core;
pub use bcount_daemon as daemon;
pub use bcount_graph as graph;
pub use bcount_json as json;
pub use bcount_sim as sim;

/// One-stop imports for the common workflow: generate a network, pick an
/// adversary, run a counting protocol, evaluate the estimates.
pub mod prelude {
    pub use bcount_apps::{
        counting_then_agreement, AgreementParams, AgreementProtocol, PipelineReport,
    };
    pub use bcount_core::adversary::phantom::phantom_copies;
    pub use bcount_core::adversary::{
        BeaconSpamAdversary, EdgeInjectorAdversary, FakeExpanderAdversary, PathTamperAdversary,
    };
    pub use bcount_core::congest::{CongestCounting, CongestEstimate, CongestParams};
    pub use bcount_core::estimate::{Band, EstimateReport};
    pub use bcount_core::local::{LocalConfig, LocalCounting, LocalEstimate, LocalTrigger};
    pub use bcount_daemon::{Server, SessionSpec};
    pub use bcount_graph::gen::{
        barbell, bridged_expanders, complete, configuration_model, cycle, erdos_renyi, hnd, path,
        random_regular_simple, star, torus2d, watts_strogatz,
    };
    pub use bcount_graph::{Graph, GraphBuilder, NodeId, TopologyView};
    pub use bcount_sim::prelude::*;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let g = cycle(4).unwrap();
        assert_eq!(g.len(), 4);
        let _ = CongestParams::default();
        let _ = LocalConfig::default();
    }
}
