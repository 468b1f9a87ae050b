//! Ring protocol messages (including the layer's own timers).

use pepper_net::SimTime;
use pepper_types::{PeerId, PeerValue};

use crate::entry::{EntryState, SuccEntry};

/// Messages exchanged by the ring layer. Timer variants are delivered back to
/// the peer that armed them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingMsg {
    // ---- periodic timers -------------------------------------------------
    /// Periodic stabilization tick.
    StabilizeTick,
    /// Periodic successor-ping tick.
    PingTick,
    /// Ping timeout guard: if no reply with sequence >= `seq` arrived from
    /// `target`, the successor is declared failed.
    PingTimeout {
        /// The peer that was pinged.
        target: PeerId,
        /// The ping sequence number the guard belongs to.
        seq: u64,
    },
    /// Guard on an in-flight `insertSucc`: a joining free peer cannot be
    /// ping-probed (it truthfully answers "not a member yet"), so a join
    /// that never completes — typically because the free peer fail-stopped
    /// mid-join — is aborted by this timer instead.
    InsertTimeout {
        /// The peer being inserted when the guard was armed.
        peer: PeerId,
        /// Start time of that `insertSucc` (dedupes guards across retries).
        started: SimTime,
    },

    // ---- stabilization ---------------------------------------------------
    /// Request from a predecessor: "send me your successor list".
    /// Also informs the receiver who its predecessor is.
    StabRequest {
        /// Ring value of the requesting predecessor.
        from_value: PeerValue,
    },
    /// Response to [`RingMsg::StabRequest`].
    StabResponse {
        /// The responder's current successor list.
        succ_list: Vec<SuccEntry>,
        /// The responder's own advertised state (JOINED or LEAVING).
        responder_state: EntryState,
        /// The responder's current ring value.
        responder_value: PeerValue,
        /// The responder's current predecessor pointer. The requester uses
        /// it as the Chord-style `notify` repair: a predecessor strictly
        /// between the requester and the responder is a successor the
        /// requester does not know about yet.
        responder_pred: Option<(PeerId, PeerValue)>,
    },
    /// Proactive request to run a stabilization round *now* (the paper's
    /// optimization: the inserter/leaver pokes its predecessor instead of
    /// waiting for the periodic tick).
    StabilizeNow,

    // ---- PEPPER insertSucc ------------------------------------------------
    /// Join acknowledgement sent by the farthest relevant predecessor to the
    /// *inserter*: every peer that must know about `joining` now does.
    JoinAck {
        /// The peer that may now transition from JOINING to JOINED.
        joining: PeerId,
    },
    /// Final join message from the inserter to the joining peer: carries the
    /// successor list and predecessor the new peer should adopt. The naive
    /// `insertSucc` sends it at once, without the join handshake.
    Join {
        /// The successor list the joining peer adopts.
        succ_list: Vec<SuccEntry>,
        /// The joining peer's predecessor (the inserter) and its value.
        pred: PeerId,
        /// Ring value of the predecessor.
        pred_value: PeerValue,
        /// The ring value assigned to the joining peer.
        your_value: PeerValue,
    },
    /// Confirmation from the joining peer back to its inserter that it has
    /// installed the successor list and is now JOINED.
    JoinInstalled,

    // ---- leave -------------------------------------------------------------
    /// Leave acknowledgement sent to the LEAVING peer once every predecessor
    /// pointing at it has lengthened its successor list.
    LeaveAck,

    // ---- failure detection --------------------------------------------------
    /// Liveness probe.
    Ping {
        /// Sequence number echoed in the reply.
        seq: u64,
    },
    /// Reply to [`RingMsg::Ping`].
    PingReply {
        /// Echoed sequence number.
        seq: u64,
        /// Whether the replying peer is still a ring member (a peer that has
        /// departed replies `false` so the pointer can be dropped promptly).
        member: bool,
        /// The responder's advertised entry state.
        state: EntryState,
        /// Digest of the `StabResponse` the responder would send now (see
        /// [`crate::stabilization`]): a requester whose last applied
        /// response from it has another digest stabilizes at once.
        digest: u64,
    },
}

impl RingMsg {
    /// Short tag used by debugging / tracing output.
    pub fn tag(&self) -> &'static str {
        match self {
            RingMsg::StabilizeTick => "StabilizeTick",
            RingMsg::PingTick => "PingTick",
            RingMsg::PingTimeout { .. } => "PingTimeout",
            RingMsg::InsertTimeout { .. } => "InsertTimeout",
            RingMsg::StabRequest { .. } => "StabRequest",
            RingMsg::StabResponse { .. } => "StabResponse",
            RingMsg::StabilizeNow => "StabilizeNow",
            RingMsg::JoinAck { .. } => "JoinAck",
            RingMsg::Join { .. } => "Join",
            RingMsg::JoinInstalled => "JoinInstalled",
            RingMsg::LeaveAck => "LeaveAck",
            RingMsg::Ping { .. } => "Ping",
            RingMsg::PingReply { .. } => "PingReply",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_cover_all_variants() {
        let msgs = vec![
            RingMsg::StabilizeTick,
            RingMsg::PingTick,
            RingMsg::PingTimeout {
                target: PeerId(1),
                seq: 0,
            },
            RingMsg::InsertTimeout {
                peer: PeerId(3),
                started: SimTime::ZERO,
            },
            RingMsg::StabRequest {
                from_value: PeerValue(1),
            },
            RingMsg::StabResponse {
                succ_list: vec![],
                responder_state: EntryState::Joined,
                responder_value: PeerValue(2),
                responder_pred: None,
            },
            RingMsg::StabilizeNow,
            RingMsg::JoinAck { joining: PeerId(2) },
            RingMsg::Join {
                succ_list: vec![],
                pred: PeerId(1),
                pred_value: PeerValue(1),
                your_value: PeerValue(2),
            },
            RingMsg::JoinInstalled,
            RingMsg::LeaveAck,
            RingMsg::Ping { seq: 1 },
            RingMsg::PingReply {
                seq: 1,
                member: true,
                state: EntryState::Joined,
                digest: 0,
            },
        ];
        let mut tags: Vec<&str> = msgs.iter().map(|m| m.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), msgs.len());
    }
}
