//! `bcountd`: a long-lived counting service owning executions as
//! sessions.
//!
//! The repo's other binaries are batch: construct, run, print, exit.
//! This crate is the *service* surface the north star asks for — a
//! daemon that owns any number of concurrent executions (**sessions**)
//! and answers read queries against them while they run, round by
//! round. It is a thin shell over the redesigned embedding API in
//! [`bcount_sim::execution`]:
//!
//! * sessions are [`bcount_sim::DynExecution`] trait objects, so one
//!   table holds heterogeneous protocol × adversary × graph cells;
//! * stepping goes through `Execution`'s stop-check-first rule, so
//!   an execution driven by interleaved `session.step` requests
//!   finishes byte-identical to one `Execution::run` call;
//! * queries are served from a snapshot cached at the last step batch —
//!   reads are pure and never touch the round loop.
//!
//! The protocol (`bcountd/v1`, [`wire`]) is line-delimited JSON over
//! stdin/stdout or a unix socket; [`server`] is the dispatcher. The
//! `bcountd` binary is a ~100-line transport loop around
//! [`server::Server::handle_line`].
//!
//! Sessions are cells of the [`cell`] registry, which the experiment
//! matrix builds from too: `session.create`'s params are a [`CellSpec`]'s
//! JSON; [`spec`] adds the daemon-local `panic-probe` row in front.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cell;
pub mod journal;
pub mod server;
pub mod spec;
pub mod transport;
pub mod wire;

pub use cell::{CellSpec, SpecError};
pub use journal::{FsyncPolicy, Journal, RecoveryStats};
pub use server::{DurabilityOptions, Server, ServerLimits};
pub use spec::SessionSpec;
pub use transport::{serve_graceful, LineEvent, Shutdown, MAX_LINE_BYTES};
pub use wire::{ErrorCode, Request, Response, WireError, SCHEMA};
