//! Data Store protocol messages.

use pepper_types::{CircularRange, Item, ItemId, KeyInterval, PeerId, PeerValue};

/// Identifies one range query: the issuing peer plus a per-issuer sequence
/// number (the paper's subscript `i` on `scanRange_i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId {
    /// The peer the query was issued at (and that collects the results).
    pub origin: PeerId,
    /// Per-origin sequence number.
    pub seq: u64,
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}:{}", self.origin.raw(), self.seq)
    }
}

/// Messages exchanged by the Data Store layer (timers included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsMsg {
    // ---- item insertion / deletion ---------------------------------------
    /// Store `item` at the receiving peer (which must be responsible for its
    /// mapped value).
    InsertItem {
        /// The item to store.
        item: Item,
        /// Peer to acknowledge to (the peer the client issued the insert at).
        reply_to: PeerId,
    },
    /// Acknowledgement of [`DsMsg::InsertItem`].
    InsertItemAck {
        /// The stored item's id.
        item: ItemId,
    },
    /// Delete the item with the given mapped value.
    DeleteItem {
        /// The mapped value (`M(i.skv)`) of the item to delete.
        mapped: u64,
        /// Peer to acknowledge to.
        reply_to: PeerId,
    },
    /// Acknowledgement of [`DsMsg::DeleteItem`]; `found` tells whether the
    /// item existed.
    DeleteItemAck {
        /// The mapped value that was deleted.
        mapped: u64,
        /// Whether an item was actually removed.
        found: bool,
    },
    /// The receiving peer is not responsible for the mapped value (stale
    /// routing); the sender should re-route.
    NotResponsible {
        /// The mapped value the request was about.
        mapped: u64,
    },

    // ---- PEPPER scanRange --------------------------------------------------
    /// One hop of a `scanRange`: the receiver must own part of the interval,
    /// lock its range, acknowledge to `prev`, report its items to the origin
    /// and forward to its successor if the interval extends past its range.
    ScanStep {
        /// Query identity.
        query: QueryId,
        /// The full query interval (closed).
        interval: KeyInterval,
        /// The peer that forwarded this step and is waiting for the lock
        /// hand-off acknowledgement (`None` for the first hop).
        prev: Option<PeerId>,
        /// Hop counter (0 at the first peer).
        hop: u32,
    },
    /// Lock hand-off acknowledgement: the successor has locked its range, so
    /// the sender may release its own lock.
    ScanStepAck {
        /// Query identity.
        query: QueryId,
        /// The acknowledging hop's own hop counter. A scan that revisits a
        /// peer leaves several forwards outstanding for the same query; the
        /// hop number ties the ack to the exact forward it answers (acks can
        /// arrive out of order).
        hop: u32,
    },
    /// Timer guarding a scan hand-off: fires if the successor never
    /// acknowledged.
    ScanForwardTimeout {
        /// Query identity.
        query: QueryId,
        /// The successor the step was forwarded to.
        target: PeerId,
        /// The forwarding peer's hop counter for this forward. Two forwards
        /// of the same query (a scan that revisits the peer) share the same
        /// target and starting attempt; the hop pins the guard to its own.
        hop: u32,
        /// Retry attempt the guard belongs to.
        attempt: usize,
    },
    /// The first peer of a scan rejected it because the query's lower bound
    /// is not in its range (stale routing); the origin should re-route.
    ScanRejected {
        /// Query identity.
        query: QueryId,
    },

    // ---- naive application-level scan ---------------------------------------
    /// One hop of the naive lock-free scan.
    NaiveScanStep {
        /// Query identity.
        query: QueryId,
        /// The full query interval (closed).
        interval: KeyInterval,
        /// Hop counter.
        hop: u32,
    },

    // ---- scan results (delivered to the query origin) -----------------------
    /// Partial result from one peer of the scan.
    ScanResult {
        /// Query identity.
        query: QueryId,
        /// Items of this peer that fall in the query interval.
        items: Vec<Item>,
        /// The sub-intervals of the query this peer was responsible for.
        covered: Vec<KeyInterval>,
        /// Hop index of the reporting peer.
        hop: u32,
    },
    /// The scan has reached the peer owning the query's upper bound.
    ScanDone {
        /// Query identity.
        query: QueryId,
        /// Total number of hops the scan took.
        hops: u32,
    },
    /// The scan could not be completed (successor failures exhausted the
    /// retries). The query is reported with whatever was collected.
    ScanFailed {
        /// Query identity.
        query: QueryId,
    },

    // ---- storage balance: split --------------------------------------------
    /// Hand-off of the upper half of a splitting peer's range to the freshly
    /// joined free peer.
    HandoffInstall {
        /// The range the new peer becomes responsible for.
        range: CircularRange,
        /// The items in that range (mapped value, item).
        items: Vec<(u64, Item)>,
    },
    /// Acknowledgement of [`DsMsg::HandoffInstall`].
    HandoffAck,

    // ---- storage balance: merge / redistribute -------------------------------
    /// An underflowing peer asks its successor to merge or redistribute.
    MergeRequest {
        /// How many items the requester currently holds.
        requester_items: usize,
    },
    /// The successor grants a redistribution: it hands the lower portion of
    /// its items to the requester; the boundary between the two moves up to
    /// `new_boundary`.
    RedistributeGrant {
        /// The items handed over (copies; the granter removes them only once
        /// the requester acknowledges).
        items: Vec<(u64, Item)>,
        /// The new boundary: the requester's range becomes
        /// `(.., new_boundary]`, the granter's `(new_boundary, ..]`.
        new_boundary: PeerValue,
        /// The low end of the granter's range when it granted. Normally
        /// equal to the requester's high end; when a peer between the two
        /// failed and its takeover has not run yet, the stretch in between
        /// is bridged by this redistribute and the requester must revive
        /// its items from replicas.
        granter_low: PeerValue,
    },
    /// The requester has installed the redistributed items.
    RedistributeAck {
        /// The boundary that was agreed.
        new_boundary: PeerValue,
    },
    /// The granter's acknowledgement guard expired: it asks the requester to
    /// drop the grant if it has not been applied yet. A requester that
    /// already applied ignores this (its `RedistributeAck` is on the way); a
    /// requester still holding the grant parked behind scan locks drops it
    /// and answers [`DsMsg::RedistributeAbortAck`]. Only if *neither* answer
    /// arrives within another guard period does the granter conclude the
    /// requester is dead and abort unilaterally.
    RedistributeAbort {
        /// The boundary of the give being aborted.
        new_boundary: PeerValue,
    },
    /// The requester dropped the unapplied grant: the granter may safely
    /// keep its range and items.
    RedistributeAbortAck {
        /// The boundary of the aborted give.
        new_boundary: PeerValue,
    },
    /// The successor grants a full merge: it hands over its entire range and
    /// all its items, and will leave the ring once acknowledged.
    MergeGrant {
        /// The granter's entire range.
        range: CircularRange,
        /// All of the granter's items.
        items: Vec<(u64, Item)>,
    },
    /// The requester has absorbed the granter's range and items.
    MergeGrantAck,
    /// The successor declines to merge or redistribute right now (e.g. it is
    /// itself rebalancing); the requester retries later.
    MergeDeclined,

    // ---- voluntary leave ------------------------------------------------------
    /// A peer that wants to leave the ring voluntarily offers its range to
    /// its predecessor. The predecessor locks itself against concurrent
    /// splits/merges (so no new peer can appear between the two while the
    /// hand-off is in flight) before acknowledging.
    LeaveOffer,
    /// The predecessor accepted the leave offer and is locked; the leaver
    /// proceeds with the availability protections and the merge grant.
    LeaveOfferAck,
    /// The predecessor cannot absorb the leaver right now (it is rebalancing
    /// or the offer did not come from its direct successor).
    LeaveOfferDeclined,

    // ---- timers ---------------------------------------------------------------
    /// Re-check overflow / underflow after a deferred or declined rebalance.
    RebalanceRetry,
    /// Guard on the *giving* side of a transfer (full merge grant or
    /// redistribution): fires if the receiver's acknowledgement never
    /// arrives. The receiver is the giver's ring *predecessor*, which the
    /// ping loop never probes, so a timer is the only way out of the wait.
    GiveTimeout {
        /// The receiver the guarded transfer went to.
        to: PeerId,
        /// The redistribution boundary, or `None` for a full merge give —
        /// ties the guard to the exact transfer so a stale timer cannot
        /// fire into a later one.
        boundary: Option<PeerValue>,
        /// Which firing this is: a redistribute give first *asks* the
        /// requester to drop the grant (attempt 1) and only aborts
        /// unilaterally when that, too, goes unanswered (attempt 2).
        attempt: u32,
    },
    /// Guard on an outstanding voluntary-leave offer: fires if the
    /// predecessor never answers (failed, or the cached pointer was stale),
    /// so the leaver can offer again later.
    LeaveOfferTimeout {
        /// The predecessor the guarded offer went to (a stale guard from an
        /// earlier, already-resolved offer must not clear a newer one).
        to: PeerId,
    },
    /// Guard at the predecessor absorbing a voluntary leaver: fires if the
    /// merge grant never arrives (e.g. the leaver failed mid-leave), so the
    /// predecessor does not stay locked forever.
    LeaveAbsorbTimeout {
        /// The leaver the guarded absorption waits on (a stale guard from an
        /// earlier, already-absorbed leave must not unlock a newer one).
        from: PeerId,
    },
}

impl DsMsg {
    /// Short tag used for tracing and statistics.
    pub fn tag(&self) -> &'static str {
        match self {
            DsMsg::InsertItem { .. } => "InsertItem",
            DsMsg::InsertItemAck { .. } => "InsertItemAck",
            DsMsg::DeleteItem { .. } => "DeleteItem",
            DsMsg::DeleteItemAck { .. } => "DeleteItemAck",
            DsMsg::NotResponsible { .. } => "NotResponsible",
            DsMsg::ScanStep { .. } => "ScanStep",
            DsMsg::ScanStepAck { .. } => "ScanStepAck",
            DsMsg::ScanForwardTimeout { .. } => "ScanForwardTimeout",
            DsMsg::ScanRejected { .. } => "ScanRejected",
            DsMsg::NaiveScanStep { .. } => "NaiveScanStep",
            DsMsg::ScanResult { .. } => "ScanResult",
            DsMsg::ScanDone { .. } => "ScanDone",
            DsMsg::ScanFailed { .. } => "ScanFailed",
            DsMsg::HandoffInstall { .. } => "HandoffInstall",
            DsMsg::HandoffAck => "HandoffAck",
            DsMsg::MergeRequest { .. } => "MergeRequest",
            DsMsg::RedistributeGrant { .. } => "RedistributeGrant",
            DsMsg::RedistributeAck { .. } => "RedistributeAck",
            DsMsg::RedistributeAbort { .. } => "RedistributeAbort",
            DsMsg::RedistributeAbortAck { .. } => "RedistributeAbortAck",
            DsMsg::MergeGrant { .. } => "MergeGrant",
            DsMsg::MergeGrantAck => "MergeGrantAck",
            DsMsg::MergeDeclined => "MergeDeclined",
            DsMsg::LeaveOffer => "LeaveOffer",
            DsMsg::LeaveOfferAck => "LeaveOfferAck",
            DsMsg::LeaveOfferDeclined => "LeaveOfferDeclined",
            DsMsg::RebalanceRetry => "RebalanceRetry",
            DsMsg::GiveTimeout { .. } => "GiveTimeout",
            DsMsg::LeaveOfferTimeout { .. } => "LeaveOfferTimeout",
            DsMsg::LeaveAbsorbTimeout { .. } => "LeaveAbsorbTimeout",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_id_display() {
        let q = QueryId {
            origin: PeerId(3),
            seq: 7,
        };
        assert_eq!(q.to_string(), "q3:7");
    }

    #[test]
    fn representative_tags() {
        assert_eq!(
            DsMsg::ScanStep {
                query: QueryId {
                    origin: PeerId(1),
                    seq: 1
                },
                interval: KeyInterval::new(1, 2).unwrap(),
                prev: None,
                hop: 0,
            }
            .tag(),
            "ScanStep"
        );
        assert_eq!(DsMsg::HandoffAck.tag(), "HandoffAck");
        assert_eq!(DsMsg::RebalanceRetry.tag(), "RebalanceRetry");
    }
}
