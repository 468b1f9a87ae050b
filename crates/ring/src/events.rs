//! Events raised by the ring layer to the layers above.

use std::time::Duration;

use pepper_types::{PeerId, PeerValue};

/// Events surfaced to the Data Store / Replication Manager / index layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingEvent {
    /// This peer has completed joining the ring and is now JOINED (the
    /// paper's `INSERTED` event at the joining peer).
    Joined {
        /// The value this peer now occupies on the ring.
        value: PeerValue,
        /// This peer's predecessor at join time.
        pred: PeerId,
        /// The predecessor's ring value (the low end of this peer's range).
        pred_value: PeerValue,
    },
    /// An `insertSucc` initiated by this peer has completed: `new_peer` is
    /// now JOINED (the paper's `INSERT` completion at the inserter).
    InsertSuccComplete {
        /// The peer that was inserted as this peer's successor.
        new_peer: PeerId,
        /// Virtual time elapsed since `insert_succ` was invoked.
        elapsed: Duration,
    },
    /// An `insertSucc` initiated by this peer was aborted (e.g. the peer was
    /// not in a state that allows inserting).
    InsertSuccAborted {
        /// The peer whose insertion was abandoned.
        new_peer: PeerId,
    },
    /// A new stabilized first successor was detected (the paper's
    /// `NEWSUCCEVENT`).
    NewSuccessor {
        /// The new successor.
        peer: PeerId,
        /// The successor's ring value.
        value: PeerValue,
    },
    /// The predecessor changed (learned from a stabilization request).
    NewPredecessor {
        /// The new predecessor.
        peer: PeerId,
        /// The predecessor's ring value (the new low end of this peer's
        /// responsibility range).
        value: PeerValue,
    },
    /// A `leave` initiated by this peer has completed: it is now safe to
    /// transfer state and depart (the paper's `LEAVE` event).
    LeaveComplete {
        /// Virtual time elapsed since `leave` was invoked.
        elapsed: Duration,
    },
    /// A successor was detected as failed and removed from the list.
    SuccessorFailed {
        /// The failed peer.
        peer: PeerId,
    },
    /// A successor answered a ping as no longer a ring member (it departed,
    /// or crashed and came back free), or a `LEAVING` one answered as a
    /// `JOINED` member (it came back at another position), and was removed
    /// from the list.
    SuccessorDeparted {
        /// The departed peer.
        peer: PeerId,
    },
}

impl RingEvent {
    /// Short tag used by debugging / tracing output.
    pub fn tag(&self) -> &'static str {
        match self {
            RingEvent::Joined { .. } => "Joined",
            RingEvent::InsertSuccComplete { .. } => "InsertSuccComplete",
            RingEvent::InsertSuccAborted { .. } => "InsertSuccAborted",
            RingEvent::NewSuccessor { .. } => "NewSuccessor",
            RingEvent::NewPredecessor { .. } => "NewPredecessor",
            RingEvent::LeaveComplete { .. } => "LeaveComplete",
            RingEvent::SuccessorFailed { .. } => "SuccessorFailed",
            RingEvent::SuccessorDeparted { .. } => "SuccessorDeparted",
        }
    }

    /// The event's fields, rendered for a trace line (`peer=p4 value=v7`).
    pub fn detail(&self) -> String {
        match self {
            RingEvent::Joined {
                value,
                pred,
                pred_value,
            } => format!("value={value} pred={pred} pred_value={pred_value}"),
            RingEvent::InsertSuccComplete { new_peer, elapsed } => {
                format!("new_peer={new_peer} elapsed={elapsed:?}")
            }
            RingEvent::InsertSuccAborted { new_peer } => format!("new_peer={new_peer}"),
            RingEvent::NewSuccessor { peer, value } | RingEvent::NewPredecessor { peer, value } => {
                format!("peer={peer} value={value}")
            }
            RingEvent::LeaveComplete { elapsed } => format!("elapsed={elapsed:?}"),
            RingEvent::SuccessorFailed { peer } | RingEvent::SuccessorDeparted { peer } => {
                format!("peer={peer}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_distinct() {
        let events = [
            RingEvent::Joined {
                value: PeerValue(1),
                pred: PeerId(0),
                pred_value: PeerValue(0),
            },
            RingEvent::InsertSuccComplete {
                new_peer: PeerId(1),
                elapsed: Duration::ZERO,
            },
            RingEvent::InsertSuccAborted {
                new_peer: PeerId(1),
            },
            RingEvent::NewSuccessor {
                peer: PeerId(1),
                value: PeerValue(1),
            },
            RingEvent::NewPredecessor {
                peer: PeerId(1),
                value: PeerValue(1),
            },
            RingEvent::LeaveComplete {
                elapsed: Duration::ZERO,
            },
            RingEvent::SuccessorFailed { peer: PeerId(1) },
            RingEvent::SuccessorDeparted { peer: PeerId(1) },
        ];
        let mut tags: Vec<&str> = events.iter().map(|e| e.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), events.len());
    }

    #[test]
    fn details_name_every_field() {
        let joined = RingEvent::Joined {
            value: PeerValue(9),
            pred: PeerId(2),
            pred_value: PeerValue(5),
        };
        assert_eq!(joined.detail(), "value=v9 pred=p2 pred_value=v5");
        let succ = RingEvent::NewSuccessor {
            peer: PeerId(4),
            value: PeerValue(7),
        };
        assert_eq!(succ.detail(), "peer=p4 value=v7");
        let done = RingEvent::InsertSuccComplete {
            new_peer: PeerId(3),
            elapsed: Duration::from_millis(2),
        };
        assert_eq!(done.detail(), "new_peer=p3 elapsed=2ms");
        let gone = RingEvent::SuccessorDeparted { peer: PeerId(1) };
        assert_eq!(gone.detail(), "peer=p1");
    }
}
