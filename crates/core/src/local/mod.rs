//! Algorithm 1: time-optimal deterministic Byzantine counting (LOCAL).
//!
//! The deterministic protocol of Section 4 of the paper. Every node `u`
//! grows an approximation `B̂(u, i)` of its `i`-hop neighbourhood by
//! broadcasting its entire current view each round and merging what its
//! neighbours broadcast. A node decides its current radius the moment it
//! observes any of:
//!
//! * **Inconsistency** — a claimed degree above `Δ`, a re-announced edge
//!   list that differs from a previous announcement, or asymmetric edge
//!   claims (the `inconsistent` predicate, Lines 16–18);
//! * **Muteness** — a neighbour that failed to broadcast (Line 5); mute
//!   cascades propagate one hop per round, which is how decisions spread
//!   through the honest graph (Lemma 4);
//! * **Expansion failure** — some subset of the previous view with vertex
//!   expansion below `α′` in the grown view (Lines 9–13). This is what
//!   terminates the algorithm at radius `diam(G) + 1` (Lemma 5): once the
//!   honest region stops growing, its boundary inside the view consists of
//!   at most `B(n) = o(n)` Byzantine cut nodes, and its expansion
//!   collapses.
//!
//! The paper's check quantifies over **all** subsets, which the LOCAL
//! model's free local computation permits but no real machine does. This
//! implementation substitutes a polynomial family that provably catches
//! sparse cuts (see [`checks`]): exhaustive enumeration
//! for small views, and BFS-prefix plus Fiedler sweep cuts for large ones.

pub mod checks;
mod protocol;

pub use checks::{CheckOutcome, LocalConfig};
pub use protocol::{LocalCounting, LocalEstimate, LocalMsg, LocalTrigger};
