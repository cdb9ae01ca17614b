//! Synchronous full-information message-passing simulator with Byzantine
//! adversaries.
//!
//! This crate implements the distributed computing model of the paper
//! (Section 2):
//!
//! * **Synchronous rounds** — all nodes run in lock-step; a message sent in
//!   round `r` is received by the end of round `r` and acted upon in round
//!   `r + 1` ([`engine::Simulation`]).
//! * **Full-information adversary** — a single [`adversary::Adversary`]
//!   object controls every Byzantine node. Each round it observes the
//!   complete states of all honest nodes *and* the messages they just sent
//!   (rushing), then chooses the Byzantine messages.
//! * **Authenticated channels** — a Byzantine node can say anything but
//!   cannot fake its sender identity ([`message::Envelope`] carries the
//!   authentic [`Pid`]), and can only talk over real edges.
//! * **Information-free IDs** — protocol-level identities ([`Pid`]) are
//!   drawn uniformly from a 64-bit space, so a node cannot infer the
//!   network size from its own ID ([`idspace`]).
//! * **Message-size accounting** — every protocol message reports its size
//!   in bits under an explicit ID-width model ([`message::MessageSize`]),
//!   so experiments can verify the paper's CONGEST claims (most good nodes
//!   send `O(log n)`-bit messages).
//!
//! Execution is deterministic whatever the schedule: with the `parallel`
//! feature the honest compute phase fans out over a work-stealing pool
//! through the helpers in [`pool`] while the merge and delivery stay
//! serial, and transcripts stay bit-identical to the serial path at every
//! pool size (the module docs
//! on [`engine`] describe the message plane; the crate's unit tests diff
//! it round by round against a literal reference executor, and the
//! determinism and zero-allocation test suites enforce the rest).
//!
//! # Quick example
//!
//! ```
//! use bcount_graph::gen::cycle;
//! use bcount_sim::prelude::*;
//!
//! // A protocol in which every node announces itself once and halts.
//! struct Hello { sent: bool }
//! impl Protocol for Hello {
//!     type Message = ();
//!     type Output = ();
//!     fn on_round(&mut self, ctx: &mut NodeContext<'_, ()>) {
//!         if !self.sent { ctx.broadcast(()); self.sent = true; }
//!     }
//!     fn output(&self) -> Option<()> { self.sent.then_some(()) }
//!     fn has_halted(&self) -> bool { self.sent }
//! }
//!
//! let g = cycle(8).unwrap();
//! let mut sim = Simulation::new(
//!     &g,
//!     &[],                              // no Byzantine nodes
//!     |_, _| Hello { sent: false },
//!     NullAdversary,
//!     SimConfig::default(),
//! );
//! let report = sim.run();
//! assert!(report.outputs.iter().all(|o| o.is_some()));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod engine;
pub mod execution;
pub mod fault;
pub mod idspace;
pub mod json;
pub mod message;
pub mod metrics;
pub mod pool;
pub mod protocol;
#[cfg(test)]
mod reference;
pub mod rss;
pub mod trace;

pub use adversary::{Adversary, ByzantineContext, FullInfoView, HonestTraffic, NullAdversary};
pub use engine::{
    NodeInit, PhaseSend, PhaseShared, SimConfig, SimReport, Simulation, StopReason, StopWhen,
};
pub use execution::{
    ConfigError, DynExecution, EstimateSummary, Execution, ExecutionSnapshot, NodeState,
    SimConfigBuilder,
};
pub use fault::{CrashEvent, FaultPlan};
pub use idspace::{Pid, PidIndex, SenderRanks};
pub use message::{DeliveryMap, Envelope, EnvelopeRef, Inbox, InboxIter, MessageSize, SlotTarget};
pub use metrics::{Metrics, NodeMetrics};
pub use protocol::{NodeContext, Protocol};
pub use rss::peak_rss_kb;
pub use trace::{validate_trace, RoundTrace};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::adversary::{
        Adversary, ByzantineContext, FullInfoView, HonestTraffic, NullAdversary,
    };
    pub use crate::engine::{
        NodeInit, PhaseSend, PhaseShared, SimConfig, SimReport, Simulation, StopReason, StopWhen,
    };
    pub use crate::execution::{
        ConfigError, DynExecution, EstimateSummary, Execution, ExecutionSnapshot, NodeState,
        SimConfigBuilder,
    };
    pub use crate::fault::{CrashEvent, FaultPlan};
    pub use crate::idspace::{Pid, PidIndex, SenderRanks};
    pub use crate::message::{
        DeliveryMap, Envelope, EnvelopeRef, Inbox, InboxIter, MessageSize, SlotTarget,
    };
    pub use crate::metrics::{Metrics, NodeMetrics};
    pub use crate::protocol::{NodeContext, Protocol};
    pub use crate::trace::{validate_trace, RoundTrace};
}
