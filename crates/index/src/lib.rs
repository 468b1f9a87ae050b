//! The PEPPER P2P range index: the composed peer and its public API.
//!
//! This crate assembles the four framework components — Fault Tolerant Ring,
//! Data Store, Replication Manager and Content Router — into a single
//! [`PeerNode`] state machine that runs on the simulated network substrate,
//! exactly mirroring the layering of Figure 1 in the paper:
//!
//! * the **index API** (`insertItem`, `deleteItem`, `rangeQuery`) is exposed
//!   as methods on [`PeerNode`] that the harness invokes on any peer;
//! * item operations and scan starts are **routed** to the responsible peer
//!   with the content router;
//! * ring events drive the Data Store (successor caching, range takeover on
//!   predecessor failure + replica revival) and the split/merge sagas tie
//!   the Data Store's storage balance to the ring's `insertSucc`/`leave`
//!   primitives and to the replication manager's additional-hop protection;
//! * every externally observable outcome (completed queries, `insertSucc` /
//!   `leave` / merge durations, acked inserts, …) is recorded as an
//!   [`Observation`] that experiments drain and aggregate.
//!
//! Free peers are tracked in a [`FreePool`] shared by all peers of one
//! simulation — a deliberate substitution for P-Ring's distributed
//! free-peer tracking (see [`free_pool`]), which none of the reproduced
//! experiments measure.
//!
//! When a storage engine is attached, the peer also journals its Data Store
//! mutations and snapshots its durable image; the storage engine is driven
//! by the peer, not a protocol layer of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod free_pool;
pub mod messages;
pub mod node;
pub mod observations;

pub use free_pool::FreePool;
pub use messages::{PeerMsg, RoutePayload};
pub use node::PeerNode;
pub use observations::Observation;
