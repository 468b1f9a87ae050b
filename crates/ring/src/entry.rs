//! Successor-list entries and peer ring phases.

use std::fmt;

use pepper_types::{PeerId, PeerValue};

/// The state a successor-list *entry* is in, as known by the peer holding the
/// list (the paper's `stateList`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryState {
    /// The peer is being inserted and is not yet visible to all relevant
    /// predecessors. Pointers to `JOINING` peers need not be consistent.
    Joining,
    /// The peer is a full member of the ring.
    Joined,
    /// The peer has announced it will leave; predecessors lengthen their
    /// successor lists before it departs.
    Leaving,
}

impl fmt::Display for EntryState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EntryState::Joining => "JOINING",
            EntryState::Joined => "JOINED",
            EntryState::Leaving => "LEAVING",
        };
        f.write_str(s)
    }
}

/// One pointer of a successor list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuccEntry {
    /// The peer pointed to.
    pub peer: PeerId,
    /// The peer's ring value as last heard (a hint; may be stale).
    pub value: PeerValue,
    /// The state of the pointed-to peer as known locally.
    pub state: EntryState,
    /// Whether this peer has already completed a stabilization round with
    /// the pointed-to peer while it was its first successor (the paper's
    /// `STAB` / `NOTSTAB` flag). `getSucc`-style reads only return
    /// stabilized successors.
    pub stabilized: bool,
}

impl SuccEntry {
    /// A fresh, not-yet-stabilized entry.
    pub fn new(peer: PeerId, value: PeerValue, state: EntryState) -> Self {
        SuccEntry {
            peer,
            value,
            state,
            stabilized: false,
        }
    }

    /// A stabilized `JOINED` entry (used when a ring is bootstrapped).
    pub fn joined_stab(peer: PeerId, value: PeerValue) -> Self {
        SuccEntry {
            peer,
            value,
            state: EntryState::Joined,
            stabilized: true,
        }
    }
}

impl fmt::Display for SuccEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{}[{}{}]",
            self.peer,
            self.value,
            self.state,
            if self.stabilized { ",STAB" } else { "" }
        )
    }
}

/// The phase of the *peer itself* in the ring protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RingPhase {
    /// Not part of the ring: a free peer — also while it is being inserted,
    /// until its inserter's join message arrives — or a departed one.
    Free,
    /// A full member of the ring.
    Joined,
    /// A full member that is currently inserting a new successor
    /// (`insertSucc` in progress).
    Inserting,
    /// A member that has initiated `leave` and is waiting for the leave ack.
    Leaving,
}

impl RingPhase {
    /// Returns `true` if the peer participates in stabilization and answers
    /// ring requests.
    pub fn is_member(&self) -> bool {
        matches!(
            self,
            RingPhase::Joined | RingPhase::Inserting | RingPhase::Leaving
        )
    }

    /// The entry state this peer should be advertised as in stabilization
    /// responses.
    pub fn as_entry_state(&self) -> EntryState {
        match self {
            RingPhase::Leaving => EntryState::Leaving,
            _ => EntryState::Joined,
        }
    }
}

impl fmt::Display for RingPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RingPhase::Free => "FREE",
            RingPhase::Joined => "JOINED",
            RingPhase::Inserting => "INSERTING",
            RingPhase::Leaving => "LEAVING",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_constructors() {
        let e = SuccEntry::new(PeerId(1), PeerValue(10), EntryState::Joining);
        assert!(!e.stabilized);
        assert_eq!(e.state, EntryState::Joining);
        let j = SuccEntry::joined_stab(PeerId(2), PeerValue(20));
        assert!(j.stabilized);
        assert_eq!(j.state, EntryState::Joined);
    }

    #[test]
    fn phase_membership() {
        assert!(!RingPhase::Free.is_member());
        assert!(RingPhase::Joined.is_member());
        assert!(RingPhase::Inserting.is_member());
        assert!(RingPhase::Leaving.is_member());
    }

    #[test]
    fn phase_advertised_state() {
        assert_eq!(RingPhase::Joined.as_entry_state(), EntryState::Joined);
        assert_eq!(RingPhase::Inserting.as_entry_state(), EntryState::Joined);
        assert_eq!(RingPhase::Leaving.as_entry_state(), EntryState::Leaving);
    }

    #[test]
    fn display_strings() {
        assert_eq!(EntryState::Joined.to_string(), "JOINED");
        assert_eq!(RingPhase::Inserting.to_string(), "INSERTING");
        let e = SuccEntry::joined_stab(PeerId(3), PeerValue(30));
        assert_eq!(e.to_string(), "p3@v30[JOINED,STAB]");
    }
}
