//! Algorithm 2: Byzantine counting with small messages (CONGEST).
//!
//! The randomized protocol of Section 5 of the paper. Time proceeds in
//! *phases* `i = c, c+1, …`, where `i` doubles as the current guess of
//! `log n`. Each phase consists of `⌊e^{(1−γ)i}⌋ + 1` *iterations* of
//! `2i + 5` rounds:
//!
//! 1. **Beacon window** (`i + 2` rounds): every node becomes *active*
//!    with probability `c₁·i/dⁱ` and floods a `⟨beacon, origin, path⟩`
//!    message. Forwarders append the sender's identity to the path field,
//!    so a received path reads `(origin, …, last forwarder)`. Receivers
//!    accept at most one beacon per round, verify the last path entry
//!    matches the authenticated sender, and record the first acceptable
//!    beacon's path in `shortestPath`.
//! 2. **Continue window** (`i + 3` rounds): nodes that have not yet
//!    decided flood a `⟨continue⟩` message that re-arms already-decided
//!    nodes, so stragglers keep finding active neighbourhoods.
//!
//! A node that sees no acceptable beacon in an entire iteration decides
//! its current phase number `i` as its estimate of `log n`. The
//! *blacklist* makes Byzantine spam futile: at each iteration's end the
//! node blacklists everything but the trusted `⌊(1−ϵ)i⌋`-suffix of the
//! accepted path, and future beacons whose far prefix intersects the
//! blacklist are not accepted — since a phase has more iterations than
//! there are Byzantine nodes, the adversary runs out of unblacklisted
//! spoofing positions and the node decides (Lemma 11).

mod beacon;
mod params;
mod protocol;
mod schedule;

pub use beacon::{BeaconPath, CongestMsg, INLINE_PATH};
pub use params::CongestParams;
pub use protocol::{CongestCounting, CongestEstimate, CongestTrigger};
pub use schedule::{PhaseClock, RoundPosition};
