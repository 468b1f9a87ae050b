//! The Replication Manager: CFS-style successor replication plus the
//! paper's *replicate-to-additional-hop* item-availability protection.
//!
//! Every peer periodically pushes the items of its own Data Store to its `k`
//! successors (Section 2.3, CFS replication). When a predecessor fails, its
//! successor takes over the failed range and *revives* the items from its
//! replica store. When a peer is about to give up its range in a merge, it
//! first replicates everything it stores — its own items *and* the replicas
//! it holds for its predecessors — one additional hop, so that the replica
//! count in the system never decreases (Section 5.2). The naive baseline
//! skips that extra hop, which is what loses items in the Figure 17 scenario.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod events;
pub mod manager;
pub mod messages;

pub use events::ReplEvent;
pub use manager::ReplicationManager;
pub use messages::{Batch, BatchStamp, ReplMsg};
