//! Replication protocol messages.

use std::sync::Arc;

use pepper_types::{CircularRange, Item};

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
        items: Arc<[(u64, Item)]>,
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
                extra_hop: false
            }
            .tag(),
            "Push"
        );
    }
}
