//! Durable peer storage: a write-ahead log plus periodic snapshots behind a
//! virtual file system.
//!
//! The paper's availability guarantee is exercised by the harness under
//! fail-stop only; this crate adds the durable half of the story so the
//! simulator can model the hardest real-world hazard — a peer **restarting
//! with stale durable state** and rejoining the ring (the failure family
//! Zave's "How to Make Chord Correct" dissects). Every peer journals its
//! Data Store mutations (item inserts/deletes), its owned range and its
//! replica holdings:
//!
//! * the **WAL** ([`wal`]) is an append-only log of length- and
//!   checksum-framed records; acknowledged item operations are synced before
//!   the acknowledgement leaves the peer, replica receipts are appended
//!   lazily (they are soft state: a live owner pushes again to a holder
//!   it sees join the ring again);
//! * a **snapshot** ([`snapshot`]) atomically captures the full durable
//!   image (status, range, items, replicas) and truncates the WAL; the
//!   composed peer writes one on every range change and on its periodic
//!   snapshot tick;
//! * the [`Vfs`] trait ([`vfs`]) hides the byte store: [`MemVfs`] is the
//!   fully deterministic in-memory implementation the simulator uses, with
//!   seeded crash-fault injection (lost un-synced suffixes, torn tail
//!   writes); [`FileVfs`] is a real-file implementation for examples;
//! * [`PeerStorage`] ([`peer`]) ties the pieces together and implements
//!   [`recovery`](PeerStorage::recover): snapshot first, then WAL replay up
//!   to the first corrupt or torn record.
//!
//! Determinism contract: a [`MemVfs`] is seeded from the simulation seed and
//! the owning peer's id, and every fault decision (how much of a torn tail
//! survives) is drawn from that RNG — so a recorded harness schedule replays
//! byte-identically, durable state included. [`MemVfs::digest`] folds the
//! durable bytes into the harness's final-state hash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod peer;
pub mod snapshot;
pub mod vfs;
pub mod wal;

pub use peer::{DurableImage, PeerStorage, RecoveredState, RecoveryMode, StorageConfig};
pub use snapshot::Snapshot;
pub use vfs::{FileVfs, MemVfs, Vfs};
pub use wal::{fnv1a, WalRecord};
