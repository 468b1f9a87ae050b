//! Core domain types shared by every layer of the PEPPER P2P range index.
//!
//! This crate defines the vocabulary of the system described in
//! *"Guaranteeing Correctness and Availability in P2P Range Indices"*
//! (SIGMOD 2005):
//!
//! * [`SearchKey`] — the totally ordered domain `K` of search key values,
//! * [`PeerValue`] — the domain `PV` of peer positions on the ring,
//! * [`Item`] — a `(value, item)` pair stored in the index,
//! * [`ItemMap`] — items keyed by mapped value in one flat sorted array,
//!   the form of both the Data Store and the replica store,
//! * [`VecMap`] — a small ordered map in one sorted array that frees its
//!   buffer when it empties, the form of every in-flight request table,
//! * [`PeerId`] — a physical peer identifier,
//! * [`CircularRange`] — the half-open range `(pred.val, p.val]` a peer is
//!   responsible for on the circular value space,
//! * [`KeyInterval`] / [`RangeQuery`] — linear query intervals over `K`,
//! * [`SystemConfig`] / [`Protocol`] — the tunable parameters used in
//!   the paper's evaluation (successor list length, stabilization period,
//!   storage factor, replication factor, …).
//!
//! Nothing in this crate knows about networking or protocols; it is purely
//! the data model, so every other crate can depend on it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod item;
pub mod item_map;
pub mod key;
pub mod peer;
pub mod query;
pub mod range;
pub mod vec_map;

pub use config::{Protocol, SystemConfig};
pub use item::{Item, ItemId};
pub use item_map::ItemMap;
pub use key::{KeyMap, PeerValue, SearchKey};
pub use peer::PeerId;
pub use query::{Bound, RangeQuery};
pub use range::{in_half_open, in_open, CircularRange, KeyInterval};
pub use vec_map::VecMap;
