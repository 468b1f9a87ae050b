//! The composed peer's message type.

use pepper_datastore::{DsMsg, QueryId};
use pepper_replication::ReplMsg;
use pepper_ring::RingMsg;
use pepper_router::RouterMsg;
use pepper_types::{Item, KeyInterval, PeerId, PeerValue};

/// Payload of a routed request: delivered to the peer responsible for the
/// target value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutePayload {
    /// Store an item at the responsible peer.
    Insert {
        /// The item to store.
        item: Item,
        /// The peer that issued the insert and awaits the acknowledgement.
        reply_to: PeerId,
    },
    /// Delete the item with the given mapped value.
    Delete {
        /// The mapped value to delete.
        mapped: u64,
        /// The peer that issued the delete and awaits the acknowledgement.
        reply_to: PeerId,
    },
    /// Start a range scan at the peer owning the query's lower bound.
    ScanStart {
        /// Query identity (the origin collects the results).
        query: QueryId,
        /// The normalized query interval.
        interval: KeyInterval,
        /// Whether to use the PEPPER `scanRange` (vs the naive scan).
        pepper: bool,
    },
}

/// The unified message type of the composed peer: each protocol layer's
/// messages are wrapped, plus the index-level routing envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerMsg {
    /// Fault-tolerant-ring traffic.
    Ring(RingMsg),
    /// Data Store traffic.
    Ds(DsMsg),
    /// Replication manager traffic.
    Repl(ReplMsg),
    /// Content router traffic.
    Router(RouterMsg),
    /// A request being routed towards the peer responsible for `target`.
    Route {
        /// The mapped value the request must reach.
        target: u64,
        /// The request itself.
        payload: RoutePayload,
        /// Routing hop counter (guards against loops on inconsistent rings).
        hops: u32,
        /// Set when the sender took this hop from a router slot: the
        /// sequence number the receiver echoes in its [`PeerMsg::RouteAck`].
        ack: Option<u64>,
    },
    /// Answer to a [`PeerMsg::Route`] hop taken from a router slot.
    RouteAck {
        /// The hop's sequence number at the sender.
        seq: u64,
        /// The receiver's ring value if its Data Store is live, `None` if it
        /// owns nothing (free, or not yet handed a range).
        at: Option<PeerValue>,
    },
    /// Self-timer armed with every acked hop: if the hop is still unanswered
    /// when it fires, the target is forgotten and the request re-forwarded.
    RouteGuard {
        /// The hop's sequence number.
        seq: u64,
    },
    /// Self-timer re-validating a predecessor change before this peer takes
    /// over the range in between. A predecessor *failure* requires the
    /// takeover; a predecessor that *departed* through a merge or leave does
    /// not (its range is granted to the other side), and the two are locally
    /// indistinguishable at the moment the pointer changes.
    PredTakeover {
        /// The new predecessor observed when the timer was armed.
        peer: PeerId,
        /// Its value at that moment.
        value: PeerValue,
        /// This peer's own range low end at that moment. If it has moved by
        /// the time the timer fires, the gap was resolved by an explicit
        /// hand-off (e.g. this peer redistributed its low range away) and
        /// the takeover is stale.
        low_at_arm: PeerValue,
    },
    /// Self-timer of the periodic snapshot (WAL compaction); a peer with no
    /// storage engine attached just re-arms it.
    SnapshotTick,
}

impl PeerMsg {
    /// Short tag used for tracing.
    pub fn tag(&self) -> &'static str {
        match self {
            PeerMsg::Ring(m) => m.tag(),
            PeerMsg::Ds(m) => m.tag(),
            PeerMsg::Repl(m) => m.tag(),
            PeerMsg::Router(m) => m.tag(),
            PeerMsg::Route { .. } => "Route",
            PeerMsg::RouteAck { .. } => "RouteAck",
            PeerMsg::RouteGuard { .. } => "RouteGuard",
            PeerMsg::PredTakeover { .. } => "PredTakeover",
            PeerMsg::SnapshotTick => "SnapshotTick",
        }
    }

    /// The protocol layer this message belongs to, as a short static tag
    /// (the index-level routing envelope, its ack and guard, and the
    /// takeover timer count as `"index"`; the snapshot tick as `"storage"`).
    pub fn layer_tag(&self) -> &'static str {
        match self {
            PeerMsg::Ring(_) => "ring",
            PeerMsg::Ds(_) => "ds",
            PeerMsg::Repl(_) => "repl",
            PeerMsg::Router(_) => "router",
            PeerMsg::SnapshotTick => "storage",
            PeerMsg::Route { .. }
            | PeerMsg::RouteAck { .. }
            | PeerMsg::RouteGuard { .. }
            | PeerMsg::PredTakeover { .. } => "index",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_delegate_to_layers() {
        assert_eq!(PeerMsg::Ring(RingMsg::StabilizeTick).tag(), "StabilizeTick");
        assert_eq!(PeerMsg::Ds(DsMsg::HandoffAck).tag(), "HandoffAck");
        assert_eq!(PeerMsg::Repl(ReplMsg::RefreshTick).tag(), "RefreshTick");
        assert_eq!(
            PeerMsg::Router(RouterMsg::MaintainTick).tag(),
            "MaintainTick"
        );
        assert_eq!(PeerMsg::SnapshotTick.tag(), "SnapshotTick");
        assert_eq!(
            PeerMsg::Route {
                target: 5,
                payload: RoutePayload::Delete {
                    mapped: 5,
                    reply_to: PeerId(1)
                },
                hops: 0,
                ack: None
            }
            .tag(),
            "Route"
        );
        assert_eq!(PeerMsg::RouteAck { seq: 1, at: None }.tag(), "RouteAck");
        assert_eq!(PeerMsg::RouteGuard { seq: 1 }.layer_tag(), "index");
    }

    #[test]
    fn layer_tags_name_the_owning_layer() {
        assert_eq!(PeerMsg::Ring(RingMsg::StabilizeTick).layer_tag(), "ring");
        assert_eq!(PeerMsg::Ds(DsMsg::HandoffAck).layer_tag(), "ds");
        assert_eq!(PeerMsg::Repl(ReplMsg::RefreshTick).layer_tag(), "repl");
        assert_eq!(
            PeerMsg::Router(RouterMsg::MaintainTick).layer_tag(),
            "router"
        );
        assert_eq!(PeerMsg::SnapshotTick.layer_tag(), "storage");
        assert_eq!(
            PeerMsg::PredTakeover {
                peer: PeerId(1),
                value: PeerValue(0),
                low_at_arm: PeerValue(0)
            }
            .layer_tag(),
            "index"
        );
    }
}
