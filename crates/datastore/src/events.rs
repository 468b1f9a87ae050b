//! Events raised by the Data Store to the composed peer.

use std::time::Duration;

use pepper_types::{CircularRange, Item, ItemId, PeerId};

use crate::messages::QueryId;

/// Events surfaced to the index layer / replication manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsEvent {
    /// The peer's item count exceeded `2·sf`: the index layer should find a
    /// free peer and orchestrate a split.
    SplitNeeded {
        /// Current number of items stored.
        items: usize,
    },
    /// The peer's item count fell below `sf`: the index layer should ask the
    /// successor to merge or redistribute.
    MergeNeeded {
        /// Current number of items stored.
        items: usize,
    },
    /// The peer's responsibility range changed (split, merge, redistribute
    /// or predecessor change). The replication manager uses this to know
    /// what to replicate; the oracle uses it to track item liveness.
    RangeChanged {
        /// The new range; its high end is the peer's (possibly new) ring
        /// value.
        range: CircularRange,
        /// Whether the change brought items *in* (hand-off install, grant,
        /// extension) — the signal for replicate-on-receive. Shrinks (the
        /// giving side completing a transfer) hold no new items to push.
        grew: bool,
    },
    /// This peer has agreed to give up its entire range to its predecessor
    /// (a full merge). The index layer should now perform the item-
    /// availability protection (replicate-to-additional-hop) and the ring
    /// `leave`, then call
    /// [`send_merge_grant`](crate::DataStoreState::send_merge_grant), or
    /// [`cancel_merge_give`](crate::DataStoreState::cancel_merge_give).
    MergeGiveStarted,
    /// This peer granted a full merge to its predecessor and gave up its
    /// entire range: it is now a free peer and should depart the ring.
    BecameFree,
    /// A full merge grant was absorbed from the successor `granter`; the
    /// index layer should let the ring know the granter is departing.
    AbsorbedSuccessor {
        /// The peer whose range was absorbed.
        granter: PeerId,
    },
    /// A merge grant was *not adjacent* to this peer's range: the granter
    /// departed across one or more peers that failed in between, and the
    /// absorption bridged their unowned stretch. The index layer must treat
    /// that stretch like a failure takeover and revive its items from
    /// replicas.
    RangeBridged {
        /// The bridged (previously unowned) stretch.
        gap: CircularRange,
    },
    /// An item was stored at this peer.
    ItemStored {
        /// The stored item.
        item: Item,
    },
    /// An item was removed from this peer.
    ItemRemoved {
        /// Identity of the removed item.
        item: ItemId,
        /// The removed item's mapped placement value (the durable-storage
        /// WAL is keyed by mapped value).
        mapped: u64,
    },
    /// The first peer of a scan rejected it (it no longer owns the query's
    /// lower bound) while the query is still open; the index layer should
    /// re-route the scan start, or abandon the query.
    QueryRejected {
        /// Query identity.
        query: QueryId,
    },
    /// A range query issued at this peer completed (successfully or not).
    QueryCompleted {
        /// Query identity.
        query: QueryId,
        /// All items collected.
        items: Vec<Item>,
        /// Number of ring hops the scan took.
        hops: u32,
        /// Virtual time from issue to completion.
        elapsed: Duration,
        /// Whether the scan reported full coverage of the query interval
        /// (`false` when it was abandoned after repeated hand-off failures).
        complete: bool,
    },
    /// An `InsertItem` acknowledgement arrived for an insert issued at this
    /// peer.
    InsertAcked {
        /// The acknowledged item.
        item: ItemId,
    },
    /// A `DeleteItem` acknowledgement arrived for a delete issued at this
    /// peer.
    DeleteAcked {
        /// The mapped value that was deleted.
        mapped: u64,
        /// Whether the item existed.
        found: bool,
    },
    /// An insert or delete bounced because this peer (or the routed target)
    /// was not responsible; the index layer should re-route it.
    Rerouted {
        /// The mapped value of the bounced request.
        mapped: u64,
        /// The bounced insert's item, or `None` for a delete.
        item: Option<ItemId>,
    },
}

impl DsEvent {
    /// Short tag used for tracing and statistics.
    pub fn tag(&self) -> &'static str {
        match self {
            DsEvent::SplitNeeded { .. } => "SplitNeeded",
            DsEvent::MergeNeeded { .. } => "MergeNeeded",
            DsEvent::RangeChanged { .. } => "RangeChanged",
            DsEvent::MergeGiveStarted => "MergeGiveStarted",
            DsEvent::BecameFree => "BecameFree",
            DsEvent::AbsorbedSuccessor { .. } => "AbsorbedSuccessor",
            DsEvent::RangeBridged { .. } => "RangeBridged",
            DsEvent::ItemStored { .. } => "ItemStored",
            DsEvent::ItemRemoved { .. } => "ItemRemoved",
            DsEvent::QueryRejected { .. } => "QueryRejected",
            DsEvent::QueryCompleted { .. } => "QueryCompleted",
            DsEvent::InsertAcked { .. } => "InsertAcked",
            DsEvent::DeleteAcked { .. } => "DeleteAcked",
            DsEvent::Rerouted { .. } => "Rerouted",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_stable() {
        assert_eq!(DsEvent::BecameFree.tag(), "BecameFree");
        assert_eq!(DsEvent::SplitNeeded { items: 11 }.tag(), "SplitNeeded");
        assert_eq!(
            DsEvent::RangeChanged {
                range: CircularRange::new(1u64, 2u64),
                grew: false,
            }
            .tag(),
            "RangeChanged"
        );
    }
}
