//! Replication protocol messages.

use std::sync::Arc;

use pepper_net::SimTime;
use pepper_types::{CircularRange, Item};

/// A replica batch — (mapped value, item) pairs — shared by every push that
/// carries it.
pub type Batch = Arc<[(u64, Item)]>;

/// Identity of one built refresh batch: two pushes from one `PeerId` carry
/// equal stamps only if they carry the same batch.
///
/// The sender's store version alone orders the rebuilds of one incarnation,
/// but a restarted peer comes back under its old `PeerId` with the counter
/// reset, and could reach an old version holding different items. The build
/// time tells incarnations apart: a restarted peer rejoins as a free peer and
/// owns items only after a hand-off message reached it, strictly later in
/// virtual time than anything its previous incarnation built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStamp {
    /// Virtual time at which the batch was built.
    pub built_at: SimTime,
    /// The sender's Data Store mutation counter when it was built.
    pub store_version: u64,
}

/// Messages exchanged by the Replication Manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplMsg {
    /// Periodic replica-refresh tick.
    RefreshTick,
    /// A replica push: `items` (with their mapped values) owned by `owner`
    /// are to be stored in the receiver's replica store.
    ///
    /// `extra_hop` marks pushes performed by a peer that is about to leave
    /// on a merge (the paper's replicate-to-additional-hop).
    Push {
        /// The items being replicated (mapped value, item). One refresh
        /// round builds the batch once and every target shares it; the
        /// receiver clones only what it installs.
        items: Batch,
        /// Which batch `items` is, when the sender keeps it across rounds.
        /// A receiver that already walked this batch and has not changed
        /// its replica store since skips the walk. `None` (extra-hop
        /// pushes, one-off batches) is always walked.
        stamp: Option<BatchStamp>,
        /// Whether this push is the pre-leave additional-hop replication.
        extra_hop: bool,
    },
    /// A peer that has just taken over a failed predecessor's range asks for
    /// replicas falling inside it. Its own replica store can be empty — for
    /// example when it joined moments before the failure — while farther
    /// successors of the failed peer still hold copies.
    RecoverRequest {
        /// The acquired range to recover.
        range: CircularRange,
    },
    /// Reply to [`ReplMsg::RecoverRequest`]: copies of the replicas the
    /// responder holds inside the requested range.
    RecoverReply {
        /// The recovered items (mapped value, item).
        items: Vec<(u64, Item)>,
    },
}

impl ReplMsg {
    /// Short tag used for tracing.
    pub fn tag(&self) -> &'static str {
        match self {
            ReplMsg::RefreshTick => "RefreshTick",
            ReplMsg::Push { .. } => "Push",
            ReplMsg::RecoverRequest { .. } => "RecoverRequest",
            ReplMsg::RecoverReply { .. } => "RecoverReply",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags() {
        assert_eq!(ReplMsg::RefreshTick.tag(), "RefreshTick");
        assert_eq!(
            ReplMsg::Push {
                items: Arc::new([]),
                stamp: None,
                extra_hop: false
            }
            .tag(),
            "Push"
        );
    }
}
