//! The ring-layer state machine.
//!
//! [`RingState`] holds everything a single peer knows about the ring: its own
//! value and phase, its successor list (`succList` + `stateList` +
//! `stabilized` flags in the paper), its predecessor, and the bookkeeping for
//! in-flight `insertSucc` / `leave` operations. The protocol logic lives in
//! the sibling modules ([`crate::stabilization`], [`crate::join`],
//! [`crate::leave`], [`crate::ping`]); this module provides construction,
//! accessors, successor-list manipulation helpers, and the top-level message
//! dispatch.

use std::time::Duration;

use pepper_net::{Effects, LayerCtx, ProtocolLayer, SimTime};
use pepper_types::{in_open, PeerId, PeerValue, SystemConfig};

use crate::entry::{EntryState, RingPhase, SuccEntry};
use crate::events::RingEvent;
use crate::messages::RingMsg;

/// Bookkeeping for an in-flight `insertSucc` at the inserter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingInsert {
    /// The peer being inserted as this peer's successor.
    pub new_peer: PeerId,
    /// The value the new peer will occupy.
    pub new_value: PeerValue,
    /// When `insert_succ` was invoked (virtual time).
    pub started: SimTime,
}

/// The per-peer ring state machine.
#[derive(Debug, Clone)]
pub struct RingState {
    pub(crate) id: PeerId,
    pub(crate) value: PeerValue,
    pub(crate) phase: RingPhase,
    pub(crate) succ_list: Vec<SuccEntry>,
    pub(crate) pred: Option<(PeerId, PeerValue)>,
    /// Last virtual time the current predecessor stabilized to this peer
    /// (its liveness lease; see [`RingState::update_pred`]).
    pub(crate) pred_heard: SimTime,
    /// Tombstone for a just-departed peer: its straggler stabilization
    /// requests (sent while it was still LEAVING) must not re-register it
    /// as predecessor after the departure was observed.
    pub(crate) pred_tombstone: Option<(PeerId, SimTime)>,
    pub(crate) cfg: SystemConfig,
    pub(crate) pending_insert: Option<PendingInsert>,
    pub(crate) leave_started: Option<SimTime>,
    pub(crate) ping_seq: u64,
    /// Pings sent and not yet answered or timed out, as `(target, seq)`.
    /// Bounded by the pings of one ping-timeout window.
    pub(crate) outstanding_pings: Vec<(PeerId, u64)>,
    /// The successor last announced through [`RingEvent::NewSuccessor`].
    pub(crate) last_new_succ: Option<(PeerId, PeerValue)>,
    /// Events buffered for the composed peer, drained through
    /// [`ProtocolLayer::drain_events`].
    pub(crate) events: Vec<RingEvent>,
}

impl RingState {
    /// Creates the state of the very first peer of a ring (phase `JOINED`,
    /// responsible for the full circle, successor pointers to itself).
    pub fn new_first(id: PeerId, value: PeerValue, cfg: SystemConfig) -> Self {
        let mut s = RingState::new(id, value, RingPhase::Joined, cfg);
        s.succ_list = vec![SuccEntry::joined_stab(id, value); s.cfg.succ_list_len.max(1)];
        s.pred = Some((id, value));
        s.last_new_succ = Some((id, value));
        s
    }

    /// Creates the state of a free peer (not yet part of any ring). Free
    /// peers passively wait for a `Join` message.
    pub fn new_free(id: PeerId, cfg: SystemConfig) -> Self {
        RingState::new(id, PeerValue(0), RingPhase::Free, cfg)
    }

    fn new(id: PeerId, value: PeerValue, phase: RingPhase, cfg: SystemConfig) -> Self {
        RingState {
            id,
            value,
            phase,
            succ_list: Vec::new(),
            pred: None,
            pred_heard: SimTime::ZERO,
            pred_tombstone: None,
            cfg,
            pending_insert: None,
            leave_started: None,
            ping_seq: 0,
            outstanding_pings: Vec::new(),
            last_new_succ: None,
            events: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// This peer's id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// This peer's current ring value.
    pub fn value(&self) -> PeerValue {
        self.value
    }

    /// Updates this peer's ring value (used by the Data Store when a
    /// split / redistribute moves the boundary this peer is responsible up
    /// to).
    pub fn set_value(&mut self, value: PeerValue) {
        self.value = value;
    }

    /// This peer's current ring phase.
    pub fn phase(&self) -> RingPhase {
        self.phase
    }

    /// The system configuration the ring runs with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The current successor list.
    pub fn succ_list(&self) -> &[SuccEntry] {
        &self.succ_list
    }

    /// The current predecessor, if known.
    pub fn pred(&self) -> Option<(PeerId, PeerValue)> {
        self.pred
    }

    /// The paper's `getSucc` semantics: the first successor that is `JOINED`
    /// *and* stabilized. Returns `None` when no such successor exists yet.
    pub fn stabilized_succ(&self) -> Option<SuccEntry> {
        for e in &self.succ_list {
            if e.state == EntryState::Joined {
                return if e.stabilized { Some(*e) } else { None };
            }
        }
        None
    }

    /// The first `JOINED` successor regardless of the stabilized flag. Used
    /// as a progress fallback by higher layers when no stabilized successor
    /// is available yet.
    pub fn best_succ(&self) -> Option<SuccEntry> {
        self.succ_list
            .iter()
            .find(|e| e.state == EntryState::Joined)
            .copied()
    }

    /// Whether this peer currently participates in the ring protocols.
    pub fn is_member(&self) -> bool {
        self.phase.is_member()
    }

    /// Purges every successor-list entry for a peer this node has just
    /// observed departing (e.g. the granter of an absorbed merge). Without
    /// this, a stale JOINED entry for the departed peer survives at its old
    /// ring position — and if the peer promptly *rejoins elsewhere* (free
    /// peers are recycled), the entry looks alive again and captures this
    /// node's stabilization at a phantom position.
    ///
    /// If `peer` was the last announced successor, the first `JOINED` entry
    /// behind it is announced at once, stabilized or not: it is the
    /// successor the departed peer itself reported, and it owns the range
    /// right after the one this node just absorbed. Waiting for a
    /// stabilization round would leave the layers above forwarding to a
    /// peer that owns nothing.
    pub fn note_departed(&mut self, now: SimTime, peer: PeerId) {
        if peer == self.id {
            return;
        }
        let removed = self.remove_peer(peer);
        if self.last_new_succ.is_some_and(|(p, _)| p == peer) {
            self.last_new_succ = self.best_succ().map(|e| (e.peer, e.value));
            if let Some((next, value)) = self.last_new_succ {
                self.emit(RingEvent::NewSuccessor { peer: next, value });
            }
        } else if removed {
            self.maybe_emit_new_successor();
        }
        // The departed peer may have one more stabilization request in
        // flight (sent while it was still LEAVING); a short tombstone stops
        // it from re-registering as predecessor. One stabilization period
        // comfortably covers the straggler window and has expired long
        // before the peer could possibly rejoin through the free pool.
        self.pred_tombstone = Some((peer, now.saturating_add(self.cfg.stabilization_period)));
        // If the departed peer was also this peer's predecessor, the ring
        // had exactly two members (the absorbed granter is always this
        // peer's *successor*, so granter == predecessor implies a 2-ring)
        // and now has one: the predecessor is this peer itself, exactly as
        // for a freshly bootstrapped ring. Leaving the stale pointer in
        // place would make the next `insertSucc` wait forever for a join
        // ack from a peer that no longer stabilizes.
        if self.pred.map(|(p, _)| p) == Some(peer) {
            self.pred = Some((self.id, self.value));
        }
    }

    // ------------------------------------------------------------------
    // lifecycle
    // ------------------------------------------------------------------

    /// Departs the ring: the peer becomes `FREE`, keeps no pointers, and
    /// stops answering ring traffic. Called by the layer above once a merge
    /// hand-off has completed (or immediately for a naive leave).
    pub fn depart(&mut self) {
        self.phase = RingPhase::Free;
        self.succ_list.clear();
        self.pred = None;
        self.pending_insert = None;
        self.leave_started = None;
        self.last_new_succ = None;
    }

    // ------------------------------------------------------------------
    // successor-list helpers
    // ------------------------------------------------------------------

    /// Maximum number of `JOINED` entries the list should carry.
    pub(crate) fn target_len(&self) -> usize {
        self.cfg.succ_list_len.max(1)
    }

    /// Trims the successor list: keep everything up to and including the
    /// `d`-th `JOINED` entry, then drop trailing non-`JOINED` entries.
    ///
    /// This is the paper's Algorithm 17 trimming rule: lists lengthen by one
    /// for every `LEAVING` (or in-flight `JOINING`) entry they retain, and
    /// `JOINING`/`LEAVING` entries that have propagated far enough to fall
    /// off the end are simply dropped.
    pub(crate) fn trim_succ_list(&mut self) {
        // In a ring with fewer members than `d` the list wraps around to
        // this peer itself; anything *behind* that wrap marker is a stale
        // copy (dead peers, aborted joins) that would otherwise circulate
        // between the remaining members forever — and, worse, keep JOINING /
        // LEAVING entries out of the penultimate slot the join/leave
        // acknowledgement logic watches.
        if let Some(i) = self.succ_list.iter().position(|e| e.peer == self.id) {
            self.succ_list.truncate(i + 1);
        }
        let d = self.target_len();
        let mut joined_seen = 0usize;
        let mut cut = self.succ_list.len();
        for (i, e) in self.succ_list.iter().enumerate() {
            if e.state == EntryState::Joined {
                joined_seen += 1;
                if joined_seen == d {
                    cut = i + 1;
                    break;
                }
            }
        }
        self.succ_list.truncate(cut);
        while matches!(self.succ_list.last(), Some(e) if e.state != EntryState::Joined) {
            self.succ_list.pop();
        }
    }

    /// Removes every entry for `peer` from the successor list. Returns `true`
    /// if anything was removed.
    pub(crate) fn remove_peer(&mut self, peer: PeerId) -> bool {
        let before = self.succ_list.len();
        self.succ_list.retain(|e| e.peer != peer);
        before != self.succ_list.len()
    }

    /// Buffers an event for the composed peer.
    pub(crate) fn emit(&mut self, event: RingEvent) {
        self.events.push(event);
    }

    /// Emits a [`RingEvent::NewSuccessor`] if the first stabilized `JOINED`
    /// successor changed since the last notification — another peer, or the
    /// same peer at a new value (a split or redistribute moved its boundary).
    pub(crate) fn maybe_emit_new_successor(&mut self) {
        if let Some(e) = self.stabilized_succ() {
            if self.last_new_succ != Some((e.peer, e.value)) {
                self.last_new_succ = Some((e.peer, e.value));
                self.emit(RingEvent::NewSuccessor {
                    peer: e.peer,
                    value: e.value,
                });
            }
        }
    }

    /// Records a predecessor observed through a stabilization request,
    /// emitting [`RingEvent::NewPredecessor`] if the peer or its value
    /// changed.
    ///
    /// Acceptance follows the Chord `notify` rule plus a liveness lease: a
    /// *closer* predecessor (its value lies in `(current pred, self)`) is
    /// adopted immediately, but a *farther* one is only adopted once the
    /// current predecessor has stopped stabilizing for a whole lease. While
    /// a peer is LEAVING, both the leaver and the leaver's own predecessor
    /// stabilize to this peer — without the lease the pointer ping-pongs
    /// between them, and the farther value can trigger a range takeover of a
    /// range the leaver still owns.
    ///
    /// A different peer at *exactly* the current predecessor's value counts
    /// as closer: it is a hand-over, not a rival. A split's new peer
    /// inherits the splitter's old value, and a merge's absorber takes the
    /// leaver's — holding on to the old peer for a whole lease would hand
    /// the stale pointer to every predecessor that Chord-notify repairs
    /// from this peer's `responder_pred`.
    pub(crate) fn update_pred(&mut self, now: SimTime, peer: PeerId, value: PeerValue) {
        if let Some((dead, until)) = self.pred_tombstone {
            if dead == peer && now < until {
                return; // straggler from a peer observed departing
            }
        }
        if let Some((cur_peer, cur_value)) = self.pred {
            if cur_peer == peer {
                self.pred_heard = now;
                if cur_value != value {
                    self.pred = Some((peer, value));
                    self.emit(RingEvent::NewPredecessor { peer, value });
                }
                return;
            }
            let closer = cur_peer == self.id
                || value == cur_value
                || in_open(cur_value.raw(), value.raw(), self.value.raw());
            let lease_expired =
                now.duration_since(self.pred_heard) > self.cfg.stabilization_period * 3;
            if !closer && !lease_expired {
                return; // the current predecessor is alive and closer
            }
        }
        self.pred = Some((peer, value));
        self.pred_heard = now;
        self.emit(RingEvent::NewPredecessor { peer, value });
    }
}

impl ProtocolLayer for RingState {
    type Msg = RingMsg;
    type Event = RingEvent;

    /// Schedules the periodic stabilization and ping timers. Timers are
    /// staggered by a small per-peer offset so that peers do not stabilize
    /// in lockstep.
    fn start_timers(&mut self, _ctx: LayerCtx, fx: &mut Effects<RingMsg>) {
        let stagger = Duration::from_micros((self.id.raw() % 97) * 250);
        fx.timer(
            self.cfg.stabilization_period / 2 + stagger,
            RingMsg::StabilizeTick,
        );
        fx.timer(self.cfg.ping_period / 2 + stagger, RingMsg::PingTick);
    }

    fn handle(&mut self, ctx: LayerCtx, from: PeerId, msg: RingMsg, fx: &mut Effects<RingMsg>) {
        match msg {
            RingMsg::StabilizeTick => self.on_stabilize_tick(ctx, fx),
            // The proactive poke of a successor with an in-flight
            // `insertSucc` / `leave`: one round, no re-arm.
            RingMsg::StabilizeNow => self.run_stabilization(ctx, fx),
            RingMsg::StabRequest { from_value } => self.on_stab_request(ctx, from, from_value, fx),
            RingMsg::StabResponse {
                succ_list,
                responder_state,
                responder_value,
                responder_pred,
            } => self.on_stab_response(
                ctx,
                from,
                succ_list,
                responder_state,
                responder_value,
                responder_pred,
                fx,
            ),
            RingMsg::JoinAck { joining } => self.on_join_ack(ctx, joining, fx),
            RingMsg::InsertTimeout { peer, started } => self.on_insert_timeout(ctx, peer, started),
            RingMsg::Join {
                succ_list,
                pred,
                pred_value,
                your_value,
            } => self.on_join(ctx, succ_list, pred, pred_value, your_value, fx),
            RingMsg::JoinInstalled => self.on_join_installed(ctx, from),
            RingMsg::LeaveAck => self.on_leave_ack(ctx),
            RingMsg::PingTick => self.on_ping_tick(ctx, fx),
            RingMsg::Ping { seq } => self.on_ping(ctx, from, seq, fx),
            RingMsg::PingReply { seq, member, state } => {
                self.on_ping_reply(ctx, from, seq, member, state)
            }
            RingMsg::PingTimeout { target, seq } => self.on_ping_timeout(ctx, target, seq),
        }
    }

    fn drain_events(&mut self) -> Vec<RingEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn joined(peer: u64, value: u64) -> SuccEntry {
        SuccEntry::joined_stab(PeerId(peer), PeerValue(value))
    }

    #[test]
    fn first_peer_points_at_itself() {
        let s = RingState::new_first(
            PeerId(1),
            PeerValue(10),
            SystemConfig::fast().with_succ_list_len(3),
        );
        assert_eq!(s.phase(), RingPhase::Joined);
        assert_eq!(s.succ_list().len(), 3);
        assert!(s.succ_list().iter().all(|e| e.peer == PeerId(1)));
        assert_eq!(s.pred(), Some((PeerId(1), PeerValue(10))));
        assert_eq!(s.stabilized_succ().unwrap().peer, PeerId(1));
        assert!(s.is_member());
    }

    #[test]
    fn free_peer_is_not_a_member() {
        let s = RingState::new_free(PeerId(2), SystemConfig::fast().with_succ_list_len(3));
        assert_eq!(s.phase(), RingPhase::Free);
        assert!(!s.is_member());
        assert!(s.stabilized_succ().is_none());
        assert!(s.best_succ().is_none());
        assert!(s.succ_list().is_empty());
    }

    #[test]
    fn stabilized_succ_requires_stab_flag() {
        let mut s = RingState::new_free(PeerId(0), SystemConfig::fast().with_succ_list_len(2));
        s.succ_list = vec![SuccEntry::new(PeerId(1), PeerValue(1), EntryState::Joined)];
        // First JOINED entry is not stabilized: strict read returns None,
        // best-effort read returns it.
        assert!(s.stabilized_succ().is_none());
        assert_eq!(s.best_succ().unwrap().peer, PeerId(1));
        s.succ_list[0].stabilized = true;
        assert_eq!(s.stabilized_succ().unwrap().peer, PeerId(1));
    }

    #[test]
    fn stabilized_succ_skips_joining_and_leaving() {
        let mut s = RingState::new_free(PeerId(0), SystemConfig::fast().with_succ_list_len(3));
        s.succ_list = vec![
            SuccEntry::new(PeerId(9), PeerValue(9), EntryState::Joining),
            SuccEntry::new(PeerId(8), PeerValue(8), EntryState::Leaving),
            joined(1, 1),
        ];
        assert_eq!(s.stabilized_succ().unwrap().peer, PeerId(1));
    }

    #[test]
    fn trim_keeps_d_joined_and_interleaved_special_entries() {
        let mut s = RingState::new_free(PeerId(0), SystemConfig::fast().with_succ_list_len(2));
        // [p5, p*(JOINING), p1, p2] with d = 2 trims to [p5, p*, p1].
        s.succ_list = vec![
            joined(5, 5),
            SuccEntry::new(PeerId(9), PeerValue(6), EntryState::Joining),
            joined(1, 10),
            joined(2, 15),
        ];
        s.trim_succ_list();
        assert_eq!(
            s.succ_list.iter().map(|e| e.peer).collect::<Vec<_>>(),
            vec![PeerId(5), PeerId(9), PeerId(1)]
        );

        // [p4, p5, p*(JOINING), p1] trims to [p4, p5]: far predecessors drop
        // the JOINING entry.
        s.succ_list = vec![
            joined(4, 4),
            joined(5, 5),
            SuccEntry::new(PeerId(9), PeerValue(6), EntryState::Joining),
            joined(1, 10),
        ];
        s.trim_succ_list();
        assert_eq!(
            s.succ_list.iter().map(|e| e.peer).collect::<Vec<_>>(),
            vec![PeerId(4), PeerId(5)]
        );
    }

    #[test]
    fn trim_lengthens_for_leaving_entries() {
        let mut s = RingState::new_free(PeerId(0), SystemConfig::fast().with_succ_list_len(2));
        // A LEAVING first successor keeps the list one longer than d.
        s.succ_list = vec![
            SuccEntry::new(PeerId(7), PeerValue(7), EntryState::Leaving),
            joined(1, 10),
            joined(2, 15),
        ];
        s.trim_succ_list();
        assert_eq!(s.succ_list.len(), 3);
        // Trailing LEAVING entries are dropped.
        s.succ_list = vec![
            joined(1, 10),
            joined(2, 15),
            SuccEntry::new(PeerId(7), PeerValue(7), EntryState::Leaving),
        ];
        s.trim_succ_list();
        assert_eq!(s.succ_list.len(), 2);
    }

    #[test]
    fn trim_short_list_is_untouched() {
        let mut s = RingState::new_free(PeerId(0), SystemConfig::fast().with_succ_list_len(4));
        s.succ_list = vec![joined(1, 1), joined(2, 2)];
        s.trim_succ_list();
        assert_eq!(s.succ_list.len(), 2);
    }

    #[test]
    fn remove_peer_drops_all_occurrences() {
        let mut s = RingState::new_first(
            PeerId(1),
            PeerValue(10),
            SystemConfig::fast().with_succ_list_len(3),
        );
        assert!(s.remove_peer(PeerId(1)));
        assert!(s.succ_list.is_empty());
        assert!(!s.remove_peer(PeerId(1)));
    }

    #[test]
    fn new_successor_event_fires_once_per_change() {
        let mut s = RingState::new_free(PeerId(0), SystemConfig::fast().with_succ_list_len(2));
        s.succ_list = vec![joined(1, 1)];
        s.maybe_emit_new_successor();
        s.maybe_emit_new_successor();
        assert_eq!(s.drain_events().len(), 1);
        s.succ_list = vec![joined(2, 2)];
        s.maybe_emit_new_successor();
        assert_eq!(s.drain_events().len(), 1);
    }

    #[test]
    fn new_successor_fires_once_when_the_same_successor_changes_value() {
        let mut s = RingState::new_free(PeerId(0), SystemConfig::fast().with_succ_list_len(2));
        s.succ_list = vec![joined(1, 10)];
        s.maybe_emit_new_successor();
        assert_eq!(s.drain_events().len(), 1);
        // The successor split: same peer, new boundary.
        s.succ_list = vec![joined(1, 7)];
        s.maybe_emit_new_successor();
        s.maybe_emit_new_successor();
        assert_eq!(
            s.drain_events(),
            vec![RingEvent::NewSuccessor {
                peer: PeerId(1),
                value: PeerValue(7)
            }]
        );
    }

    #[test]
    fn a_departed_successor_is_replaced_at_once_and_its_rejoin_is_announced() {
        let mut s = RingState::new_free(PeerId(0), SystemConfig::fast().with_succ_list_len(3));
        s.succ_list = vec![joined(1, 10)];
        s.maybe_emit_new_successor();
        s.drain_events();
        // p1 gave its whole range to this peer; p2, behind it, has not been
        // stabilized with yet.
        s.succ_list = vec![
            joined(1, 10),
            SuccEntry::new(PeerId(2), PeerValue(20), EntryState::Joined),
        ];
        s.note_departed(SimTime::from_secs(1), PeerId(1));
        assert_eq!(
            s.drain_events(),
            vec![RingEvent::NewSuccessor {
                peer: PeerId(2),
                value: PeerValue(20)
            }]
        );
        // The free pool recycles p1 into a split of the same gap, at the
        // same value: it is a new successor again.
        s.succ_list = vec![joined(1, 10), joined(2, 20)];
        s.maybe_emit_new_successor();
        assert_eq!(
            s.drain_events(),
            vec![RingEvent::NewSuccessor {
                peer: PeerId(1),
                value: PeerValue(10)
            }]
        );
        // Losing a peer that was not the announced successor announces
        // nothing new.
        s.succ_list
            .push(SuccEntry::new(PeerId(3), PeerValue(30), EntryState::Joined));
        s.note_departed(SimTime::from_secs(2), PeerId(3));
        assert!(s.drain_events().is_empty());
    }

    /// A member at value 100 whose predecessor `(peer, value)` last
    /// stabilized at 1 s; its lease runs out at 1.6 s.
    fn with_pred(peer: u64, value: u64) -> RingState {
        let mut s = RingState::new_first(
            PeerId(0),
            PeerValue(100),
            SystemConfig::fast().with_succ_list_len(2),
        );
        s.update_pred(SimTime::from_millis(1000), PeerId(peer), PeerValue(value));
        s.drain_events();
        s
    }

    #[test]
    fn a_splits_new_peer_takes_over_the_predecessor_at_the_inherited_value() {
        // p3 (value 50) split: the new peer p9 inherits value 50 and p3
        // moves down to 30. p9 replaces p3 at once, well inside p3's lease.
        let mut s = with_pred(3, 50);
        s.update_pred(SimTime::from_millis(1100), PeerId(9), PeerValue(50));
        assert_eq!(s.pred(), Some((PeerId(9), PeerValue(50))));
        assert_eq!(
            s.drain_events(),
            vec![RingEvent::NewPredecessor {
                peer: PeerId(9),
                value: PeerValue(50)
            }]
        );
    }

    #[test]
    fn a_merges_absorber_takes_over_the_predecessor_at_the_leavers_value() {
        // p7 (value 60) is leaving into its predecessor p3 (value 40).
        let mut s = with_pred(7, 60);
        // While p7 still serves, p3 is farther and waits out the lease...
        s.update_pred(SimTime::from_millis(1100), PeerId(3), PeerValue(40));
        assert_eq!(s.pred(), Some((PeerId(7), PeerValue(60))));
        // ...and once it absorbed p7's range at p7's value, it takes over.
        s.update_pred(SimTime::from_millis(1200), PeerId(3), PeerValue(60));
        assert_eq!(s.pred(), Some((PeerId(3), PeerValue(60))));
        assert_eq!(s.drain_events().len(), 1);
    }

    #[test]
    fn update_pred_emits_on_change_only() {
        let mut s = RingState::new_free(PeerId(0), SystemConfig::fast().with_succ_list_len(2));
        s.update_pred(SimTime::from_secs(1), PeerId(3), PeerValue(30));
        s.update_pred(SimTime::from_secs(2), PeerId(3), PeerValue(30));
        assert_eq!(s.drain_events().len(), 1);
        s.update_pred(SimTime::from_secs(3), PeerId(3), PeerValue(31));
        assert_eq!(s.drain_events().len(), 1);
        assert_eq!(s.pred(), Some((PeerId(3), PeerValue(31))));
    }

    #[test]
    fn depart_clears_everything() {
        let mut s = RingState::new_first(
            PeerId(1),
            PeerValue(10),
            SystemConfig::fast().with_succ_list_len(3),
        );
        s.depart();
        assert_eq!(s.phase(), RingPhase::Free);
        assert!(s.succ_list().is_empty());
        assert!(s.pred().is_none());
        assert!(!s.is_member());
    }

    #[test]
    fn set_value_updates_value_only() {
        let mut s = RingState::new_first(
            PeerId(1),
            PeerValue(10),
            SystemConfig::fast().with_succ_list_len(3),
        );
        s.set_value(PeerValue(99));
        assert_eq!(s.value(), PeerValue(99));
        assert_eq!(s.phase(), RingPhase::Joined);
    }
}
