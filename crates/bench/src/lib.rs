//! Experiment harness regenerating every quantitative claim of the paper.
//!
//! The paper is a theory paper — its "tables and figures" are the
//! quantitative statements of Theorems 1–3, Lemma 2, Corollary 1, and
//! Remarks 1–2. Each experiment E1–E14 (the [`experiments`] module indexes
//! them by claim) measures one of those statements on simulated networks
//! and prints a paper-style table; the binary `experiments` runs them
//! (`cargo run --release -p bcount-bench --bin experiments -- all`), and
//! the README's "Machine-readable experiment pipeline" covers the JSON
//! artifacts and their gates.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod runners;
pub mod scenario;
pub mod stats;
pub mod table;

pub use scenario::{CellOutcome, CellRecord, Scenario};
pub use table::Table;
