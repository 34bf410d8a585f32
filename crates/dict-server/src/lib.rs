//! Network front-end for the sharded history-independent dictionary.
//!
//! Three layers, one crate:
//!
//! - [`protocol`] — the hand-rolled length-prefixed binary wire format
//!   (`std::io` only; see the module docs for the full grammar).
//! - [`server`] — the TCP server: one thread per connection and
//!   leader-based epoch group commit (the connection about to block
//!   applies everything queued, never a timer and never another thread),
//!   draining through the sharded dictionary (HI-PMA shards, the one
//!   engine served) and responding in arrival
//!   order, with bounded
//!   queues (shed-on-overload) and typed degradation for quarantined
//!   shards.
//! - [`client`] — a small blocking client used by the load generator and
//!   the protocol/determinism batteries, with count-based exactly-once
//!   retries (one idempotency token per logical operation, resent
//!   verbatim; the server dedups inside a bounded per-client window).
//! - [`netfault`] — deterministic, count-based wire-fault injection (a
//!   [`netfault::ChaosProxy`] armed with [`netfault::NetFaultPlan`]s),
//!   the network mirror of `block_store`'s disk fault plans.
//!
//! The load-bearing invariant is stated and argued in `server`'s module
//! docs and pinned by `tests/server_determinism.rs`: request interleaving,
//! client count and where epochs close can shift *when* batches commit,
//! but the at-rest bytes stay the pure function `f(contents, seed)`. The
//! crate reads no clock at all: every bound is a count, and the only
//! durations are socket timeouts handed to the OS.

#![forbid(unsafe_code)]

pub mod client;
pub mod netfault;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientConfig, ClientError};
pub use netfault::{ChaosProxy, NetFault, NetFaultPlan};
pub use protocol::{Frame, Request, Response, MAX_FRAME};
pub use server::{Server, ServerOptions};
