//! Deterministic discrete-event network substrate.
//!
//! The paper evaluates its protocols on a real 30-peer deployment spread over
//! a 10-machine LAN. This crate provides the substitute substrate (see
//! ARCHITECTURE.md): a **deterministic discrete-event simulator** in which every
//! peer is a state machine ([`Node`]) driven by messages and timers, message
//! delivery latency follows a configurable [`LatencyModel`], peers can be
//! killed (fail-stop) and revived between runs, and all measurements are
//! taken in virtual time.
//!
//! The protocol crates (`pepper-ring`, `pepper-datastore`, …) are written as
//! *pure state machines* that emit [`Effect`]s (sends and timers) into an
//! [`Effects`] buffer; the composed peer (`pepper-index::PeerNode`) maps those
//! effects into its own message type and hands them to the simulator. This
//! keeps each protocol unit-testable without any networking at all, while the
//! simulator reproduces the cross-peer interleavings (stale successor lists,
//! in-flight splits during scans, failures between stabilization rounds) that
//! the paper's correctness arguments are about.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod effect;
pub mod failure;
pub mod latency;
pub mod layer;
pub mod sim;
pub mod stats;
pub mod time;
mod wheel;

pub use effect::{Effect, Effects, LayerCtx};
pub use failure::FailureSchedule;
pub use latency::{LatencyModel, NetworkConfig};
pub use layer::{LayerSlot, ProtocolLayer};
pub use sim::{Context, Node, Simulator};
pub use stats::NetStats;
pub use time::SimTime;

// Correlation ids ride every delivery envelope (see `sim`); re-exported so
// downstream crates can name them without a direct `pepper-trace` edge.
pub use pepper_trace::Cid;
