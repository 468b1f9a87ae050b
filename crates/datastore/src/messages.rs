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

/// Which part of the giving peer's range `(low, high]` a transfer moves to
/// a ring neighbour. Every storage-balance transfer is one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Give {
    /// Split: `(boundary, high]` goes to the freshly joined successor.
    Upper(PeerValue),
    /// Redistribute: `(low, boundary]` goes to the predecessor.
    Lower(PeerValue),
    /// Full merge or voluntary leave: everything goes to the predecessor
    /// and this peer becomes free.
    All,
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

    // ---- storage balance: split, merge, redistribute, leave -------------
    /// Every storage-balance transfer: the giver hands `range` and the items
    /// in it to a ring neighbour (copies; the giver removes them only once
    /// the receiver acknowledges with [`DsMsg::GrantAck`]).
    Grant {
        /// Which part of the giver's range moves.
        give: Give,
        /// The range the receiver takes over. A split's is `(boundary,
        /// high]`, a redistribute's `(low, boundary]` and a full give's the
        /// giver's whole range. Its low end is normally the receiver's high
        /// end; when a peer between the two failed and its takeover has not
        /// run yet, the receiver bridges the stretch in between and must
        /// revive its items from replicas.
        range: CircularRange,
        /// The items in that range (mapped value, item).
        items: Vec<(u64, Item)>,
    },
    /// The receiver has installed the [`DsMsg::Grant`] of this `give`.
    GrantAck {
        /// The give being acknowledged.
        give: Give,
    },
    /// An underflowing peer asks its successor to merge or redistribute.
    MergeRequest {
        /// How many items the requester currently holds.
        requester_items: usize,
    },
    /// The granter's acknowledgement guard expired: it asks the requester to
    /// drop the grant if it has not been applied yet. A requester that
    /// already applied ignores this (its [`DsMsg::GrantAck`] is on the way); a
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
    /// The successor declines to merge or redistribute right now (e.g. it is
    /// itself rebalancing); the requester retries later.
    MergeDeclined,

    // ---- voluntary leave ------------------------------------------------------
    /// A peer that wants to leave the ring voluntarily offers its range to
    /// its predecessor. The predecessor accepts with a
    /// [`DsMsg::MergeRequest`], which locks it against concurrent
    /// splits/merges (so no new peer can appear between the two while the
    /// hand-off is in flight); the leaver answers with a full give.
    LeaveOffer,
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
        /// The guarded give — ties the guard to the exact transfer so a
        /// stale timer cannot fire into a later one.
        give: Give,
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
            // One wire message per transfer, but reported under the name of
            // its kind: the per-tag counters count splits, redistributes and
            // merges.
            DsMsg::Grant { give, .. } => match give {
                Give::Upper(_) => "HandoffInstall",
                Give::Lower(_) => "RedistributeGrant",
                Give::All => "MergeGrant",
            },
            DsMsg::GrantAck { give } => match give {
                Give::Upper(_) => "HandoffAck",
                Give::Lower(_) => "RedistributeAck",
                Give::All => "MergeGrantAck",
            },
            DsMsg::MergeRequest { .. } => "MergeRequest",
            DsMsg::RedistributeAbort { .. } => "RedistributeAbort",
            DsMsg::RedistributeAbortAck { .. } => "RedistributeAbortAck",
            DsMsg::MergeDeclined => "MergeDeclined",
            DsMsg::LeaveOffer => "LeaveOffer",
            DsMsg::LeaveOfferDeclined => "LeaveOfferDeclined",
            DsMsg::RebalanceRetry => "RebalanceRetry",
            DsMsg::GiveTimeout { .. } => "GiveTimeout",
            DsMsg::LeaveOfferTimeout { .. } => "LeaveOfferTimeout",
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
        assert_eq!(DsMsg::RebalanceRetry.tag(), "RebalanceRetry");
        // A grant and its ack report the name of their kind, which the
        // benchmark's per-tag counts (splits, redistributes, merges) read.
        let b = PeerValue(7);
        for (give, grant, ack) in [
            (Give::Upper(b), "HandoffInstall", "HandoffAck"),
            (Give::Lower(b), "RedistributeGrant", "RedistributeAck"),
            (Give::All, "MergeGrant", "MergeGrantAck"),
        ] {
            let range = CircularRange::new(1u64, 7u64);
            let items = Vec::new();
            assert_eq!(DsMsg::Grant { give, range, items }.tag(), grant);
            assert_eq!(DsMsg::GrantAck { give }.tag(), ack);
        }
    }
}
