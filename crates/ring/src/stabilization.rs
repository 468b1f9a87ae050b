//! Ring stabilization (the paper's Algorithm 2 / appendix Algorithms 16–18).
//!
//! Every peer periodically contacts its first live successor, copies its
//! successor list (shifted by one), and applies the trimming rules that make
//! the PEPPER `insertSucc` and `leave` protocols work:
//!
//! * `JOINING` entries ride backwards through the predecessors; when the
//!   farthest predecessor that must know about the new peer observes it in
//!   the *penultimate* slot of its freshly updated list, it sends a **join
//!   ack** to the inserter (the entry right before the joining one);
//! * `LEAVING` entries are kept *in addition* to the `d` `JOINED` entries
//!   (lengthening the list by one); when the farthest predecessor that points
//!   at the leaving peer observes it in the penultimate slot, it sends a
//!   **leave ack** directly to the leaving peer;
//! * a peer that observes a `JOINING`/`LEAVING` entry proactively pokes its
//!   own predecessor (`StabilizeNow`) so the propagation completes in a chain
//!   of round-trips instead of waiting for the periodic stabilization timer
//!   (the optimization described in Sections 4.3.1 and 6.3.1).
//!
//! A member whose list names no peer but itself stabilizes with its
//! predecessor while that predecessor's lease is live: in a ring, a peer
//! that knows no other successor has its predecessor as its successor
//! (Chord's predecessor rule; Zave, *How to Make Chord Correct*). Once the
//! lease has run out, the member adopts itself as its predecessor, like a
//! freshly bootstrapped ring.

use pepper_net::{Effects, LayerCtx, SimTime};
use pepper_types::{PeerId, PeerValue};

use crate::entry::{EntryState, RingPhase, SuccEntry};
use crate::messages::RingMsg;
use crate::state::RingState;

impl RingState {
    /// Periodic stabilization tick: re-arms the timer and runs one round.
    pub(crate) fn on_stabilize_tick(&mut self, ctx: LayerCtx, fx: &mut Effects<RingMsg>) {
        fx.timer(self.cfg.stabilization_period, RingMsg::StabilizeTick);
        self.run_stabilization(ctx, fx);
    }

    /// The peer this node currently stabilizes with: the first `JOINED`
    /// successor. `JOINING` entries (including the head while an
    /// `insertSucc` is in flight) are skipped by *state*, never by position
    /// — skipping by index would skip the real successor whenever the
    /// in-flight entry is missing or not at the head.
    pub(crate) fn stabilization_target(&self, now: SimTime) -> Option<PeerId> {
        let other = |state| {
            self.succ_list
                .iter()
                .find(|e| e.state == state && e.peer != self.id)
                .map(|e| e.peer)
        };
        // No JOINED successor at all — e.g. a two-member ring whose other
        // member is LEAVING. Stabilize with the leaver anyway: it still
        // answers (LEAVING peers serve until the hand-off completes), and the
        // rebuild is the only path that puts the LEAVING entry into the
        // penultimate slot and fires the leave ack. Without this fallback
        // the leave never completes and the pair wedges mid-merge forever.
        other(EntryState::Joined)
            .or_else(|| other(EntryState::Leaving))
            .or_else(|| {
                // Chord's predecessor rule: a list that names no peer but
                // this one means the ring holds at most one other member, its
                // predecessor, which is then its successor too.
                let alone = self.succ_list.iter().all(|e| e.peer == self.id);
                self.pred
                    .map(|(pred, _)| pred)
                    .filter(|&pred| alone && pred != self.id && self.pred_lease_live(now))
            })
    }

    /// Sends a stabilization request to the first eligible successor.
    pub(crate) fn run_stabilization(&mut self, ctx: LayerCtx, fx: &mut Effects<RingMsg>) {
        if !self.is_member() {
            return;
        }
        if let Some(target) = self.stabilization_target(ctx.now) {
            fx.send(
                target,
                RingMsg::StabRequest {
                    from_value: self.value,
                },
            );
            return;
        }
        // Sole survivor: every other peer this node ever knew has died or
        // departed (the successor list collapsed to the self entry), and no
        // live peer exists to Chord-notify it a new predecessor — so the
        // normal failure-takeover chain can never arm. This happens when a
        // leave and a crash overlap: the leaver departs to its predecessor,
        // the predecessor dies before its first notify reaches this peer,
        // and this peer is the last one standing with a stale range. Adopt
        // self as predecessor exactly like a freshly bootstrapped ring —
        // the re-validated takeover then extends the range to the full
        // circle (and revives the orphaned items from replicas). Gated on
        // the predecessor lease so an active real predecessor is never
        // usurped, and self-corrects via the takeover re-validation if an
        // unknown member notifies in the meantime.
        if self.phase == RingPhase::Joined
            && self.pred.map(|(p, _)| p) != Some(self.id)
            && !self.pred_lease_live(ctx.now)
        {
            self.pred = Some((self.id, self.value));
            self.pred_heard = ctx.now;
            self.emit(crate::events::RingEvent::NewPredecessor {
                peer: self.id,
                value: self.value,
            });
        }
    }

    /// Handles a stabilization request from a predecessor: record the
    /// predecessor and reply with our successor list and state.
    pub(crate) fn on_stab_request(
        &mut self,
        _ctx: LayerCtx,
        from: PeerId,
        from_value: PeerValue,
        fx: &mut Effects<RingMsg>,
    ) {
        // JOINING and FREE peers do not answer stabilization requests.
        if !self.is_member() {
            return;
        }
        self.update_pred(_ctx.now, from, from_value);
        fx.send(
            from,
            RingMsg::StabResponse {
                succ_list: self.succ_list.clone(),
                responder_state: self.phase.as_entry_state(),
                responder_value: self.value,
                responder_pred: self.pred,
            },
        );
    }

    /// Handles the successor's stabilization response: rebuild the successor
    /// list and fire the join / leave acknowledgements when appropriate.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_stab_response(
        &mut self,
        ctx: LayerCtx,
        from: PeerId,
        their_list: Vec<SuccEntry>,
        responder_state: EntryState,
        responder_value: PeerValue,
        responder_pred: Option<(PeerId, PeerValue)>,
        fx: &mut Effects<RingMsg>,
    ) {
        if !self.is_member() {
            return;
        }
        // Stale-response guard: only adopt a list from the peer this node
        // *currently* stabilizes with. The rebuild below anchors the new list
        // at the responder and drops every non-LEAVING entry in front of it,
        // so a response from a previous round — e.g. one requested from the
        // old successor while an `insertSucc` was in flight, arriving after
        // the new peer was promoted to JOINED — would silently exclude the
        // newly joined peer from the ring forever (and let stale predecessor
        // values corrupt the Data Store ranges downstream).
        if self.stabilization_target(ctx.now) != Some(from) {
            return;
        }

        // ---- rebuild the successor list (Algorithm 17) -------------------
        let responder = SuccEntry {
            peer: from,
            value: responder_value,
            state: responder_state,
            stabilized: true,
        };
        self.rebuild_succ_list(responder, their_list);

        // ---- Chord-style `notify` repair -----------------------------------
        // If the responder's predecessor lies strictly between this peer and
        // the responder, it is a successor this peer has lost track of (for
        // example, the only peer that pointed at it dropped a phantom entry
        // with the same id). Positional successor lists have no other way to
        // re-learn a forgotten peer: lists only propagate *successors of
        // successors*, never anyone behind the stabilization target.
        if let Some((pp, pv)) = responder_pred {
            if pp != self.id
                && pp != from
                && pepper_types::in_open(self.value.raw(), pv.raw(), responder_value.raw())
                && !self.succ_list.iter().any(|e| e.peer == pp)
            {
                self.succ_list
                    .insert(0, SuccEntry::new(pp, pv, EntryState::Joined));
            }
        }
        self.trim_succ_list();

        // ---- join / leave acknowledgements --------------------------------
        // The ack may only fire from a predecessor whose list is *full
        // depth*: either `d` JOINED entries, or wrapped around to this peer
        // itself (a ring smaller than `d`). On a shallower list the
        // penultimate slot says nothing about how far the entry has
        // propagated — acking early promotes the joining peer before
        // predecessors inside the d-window have learned of it, and their
        // scans would skip its range.
        let joined_count = self
            .succ_list
            .iter()
            .filter(|e| e.state == EntryState::Joined)
            .count();
        let full_depth =
            joined_count >= self.target_len() || self.succ_list.iter().any(|e| e.peer == self.id);
        let len = self.succ_list.len();
        if len >= 2 && full_depth {
            let penultimate = self.succ_list[len - 2];
            match penultimate.state {
                EntryState::Joining => {
                    // Every predecessor that must know about the joining peer
                    // now does; tell its inserter (the entry right before it,
                    // or ourselves when the list is exactly two long).
                    let joining = penultimate.peer;
                    if len >= 3 {
                        let inserter = self.succ_list[len - 3].peer;
                        if inserter == self.id {
                            self.on_join_ack(ctx, joining, fx);
                        } else {
                            fx.send(inserter, RingMsg::JoinAck { joining });
                        }
                    } else {
                        self.on_join_ack(ctx, joining, fx);
                    }
                }
                EntryState::Leaving => {
                    fx.send(penultimate.peer, RingMsg::LeaveAck);
                }
                EntryState::Joined => {}
            }
        }

        // ---- events and proactive propagation -----------------------------
        self.maybe_emit_new_successor();

        if self.succ_list.iter().any(|e| e.state != EntryState::Joined) {
            if let Some((pred, _)) = self.pred {
                if pred != self.id {
                    fx.send(pred, RingMsg::StabilizeNow);
                }
            }
        }
    }

    /// Rebuilds the successor list from the `responder`'s answer: this
    /// peer's own in-flight `JOINING` head, the `LEAVING` entries that
    /// precede the responder in the current list (they are still ahead of
    /// us on the ring), the responder, then the responder's list. A peer
    /// named twice keeps its first (closest) entry.
    ///
    /// Runs in place, in the old list's buffer: the kept entries are
    /// compacted to the front and the rest is appended, each entry only if
    /// its peer is not in the list yet.
    fn rebuild_succ_list(&mut self, responder: SuccEntry, their_list: Vec<SuccEntry>) {
        fn append(list: &mut Vec<SuccEntry>, e: SuccEntry) {
            if !list.iter().any(|k| k.peer == e.peer) {
                list.push(e);
            }
        }
        let joining_head = self.phase == RingPhase::Inserting
            && (self.succ_list.first()).is_some_and(|e| e.state == EntryState::Joining);
        let ahead = (self.succ_list.iter())
            .position(|e| e.peer == responder.peer)
            .unwrap_or(self.succ_list.len());
        let mut kept = 0;
        for i in 0..self.succ_list.len() {
            let e = self.succ_list[i];
            let keep = (i == 0 && joining_head) || (i < ahead && e.state == EntryState::Leaving);
            if keep && !self.succ_list[..kept].iter().any(|k| k.peer == e.peer) {
                self.succ_list[kept] = e;
                kept += 1;
            }
        }
        self.succ_list.truncate(kept);
        append(&mut self.succ_list, responder);
        for e in their_list {
            let e = SuccEntry {
                stabilized: false,
                ..e
            };
            append(&mut self.succ_list, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::RingEvent;
    use pepper_net::{Effect, ProtocolLayer, SimTime};
    use pepper_types::SystemConfig;

    fn ctx(id: u64) -> LayerCtx {
        LayerCtx::new(PeerId(id), SimTime::from_secs(1))
    }

    fn joined(peer: u64, value: u64) -> SuccEntry {
        SuccEntry::joined_stab(PeerId(peer), PeerValue(value))
    }

    /// Builds a joined peer with an explicit successor list.
    fn member(id: u64, value: u64, d: usize, list: Vec<SuccEntry>) -> RingState {
        let mut s = RingState::new_first(
            PeerId(id),
            PeerValue(value),
            SystemConfig::fast().with_succ_list_len(d),
        );
        s.succ_list = list;
        s
    }

    #[test]
    fn tick_rearms_and_sends_request() {
        let mut p4 = member(4, 40, 2, vec![joined(5, 50), joined(1, 10)]);
        let mut fx = Effects::new();
        p4.on_stabilize_tick(ctx(4), &mut fx);
        let effects = fx.drain();
        assert!(matches!(effects[0], Effect::Timer { .. }));
        assert!(
            matches!(&effects[1], Effect::Send { to, msg: RingMsg::StabRequest { from_value } }
                if *to == PeerId(5) && *from_value == PeerValue(40))
        );
    }

    #[test]
    fn stabilization_skips_leaving_and_self_entries() {
        let mut p = member(
            4,
            40,
            2,
            vec![
                SuccEntry::new(PeerId(7), PeerValue(45), EntryState::Leaving),
                joined(4, 40), // stale self entry is skipped
                joined(1, 10),
            ],
        );
        let mut fx = Effects::new();
        p.run_stabilization(ctx(4), &mut fx);
        let effects = fx.drain();
        assert!(matches!(&effects[0], Effect::Send { to, .. } if *to == PeerId(1)));
    }

    #[test]
    fn inserting_peer_skips_its_joining_head() {
        let mut p = member(
            5,
            50,
            2,
            vec![
                SuccEntry::new(PeerId(9), PeerValue(55), EntryState::Joining),
                joined(1, 10),
                joined(2, 20),
            ],
        );
        p.phase = RingPhase::Inserting;
        let mut fx = Effects::new();
        p.run_stabilization(ctx(5), &mut fx);
        let effects = fx.drain();
        assert!(matches!(&effects[0], Effect::Send { to, .. } if *to == PeerId(1)));
    }

    #[test]
    fn request_records_predecessor_and_replies() {
        let mut p5 = member(5, 50, 2, vec![joined(1, 10), joined(2, 20)]);
        let mut fx = Effects::new();
        p5.on_stab_request(ctx(5), PeerId(4), PeerValue(40), &mut fx);
        assert_eq!(p5.pred(), Some((PeerId(4), PeerValue(40))));
        assert!(matches!(
            p5.drain_events()[0],
            RingEvent::NewPredecessor { peer, .. } if peer == PeerId(4)
        ));
        let effects = fx.drain();
        match &effects[0] {
            Effect::Send {
                to,
                msg:
                    RingMsg::StabResponse {
                        succ_list,
                        responder_state,
                        responder_value,
                        ..
                    },
            } => {
                assert_eq!(*to, PeerId(4));
                assert_eq!(succ_list.len(), 2);
                assert_eq!(*responder_state, EntryState::Joined);
                assert_eq!(*responder_value, PeerValue(50));
            }
            other => panic!("unexpected effect {other:?}"),
        }
    }

    #[test]
    fn joining_and_free_peers_do_not_answer_stabilization() {
        let mut free = RingState::new_free(PeerId(3), SystemConfig::fast().with_succ_list_len(2));
        let mut fx = Effects::new();
        free.on_stab_request(ctx(3), PeerId(4), PeerValue(40), &mut fx);
        assert!(fx.is_empty());
        assert!(free.drain_events().is_empty());
    }

    #[test]
    fn response_shifts_list_and_marks_first_stabilized() {
        // p4 stabilizes with p5; p5's list is [p1, p2].
        let mut p4 = member(4, 40, 2, vec![joined(5, 50), joined(1, 10)]);
        let mut fx = Effects::new();
        p4.on_stab_response(
            ctx(4),
            PeerId(5),
            vec![joined(1, 10), joined(2, 20)],
            EntryState::Joined,
            PeerValue(50),
            None,
            &mut fx,
        );
        let peers: Vec<PeerId> = p4.succ_list().iter().map(|e| e.peer).collect();
        assert_eq!(peers, vec![PeerId(5), PeerId(1)]);
        assert!(p4.succ_list()[0].stabilized);
        assert!(!p4.succ_list()[1].stabilized);
        // No join/leave ack traffic for a plain stabilization.
        assert!(fx.iter().all(|e| !matches!(
            e,
            Effect::Send {
                msg: RingMsg::JoinAck { .. },
                ..
            }
        )));
    }

    #[test]
    fn penultimate_joining_entry_triggers_join_ack_to_inserter() {
        // The paper's running example with d = 2: p4 stabilizes with p5 while
        // p5 is inserting p* (value 55). p4's fresh list becomes
        // [p5, p*, p1] and p4 must ack the inserter p5.
        let mut p4 = member(4, 40, 2, vec![joined(5, 50), joined(1, 10)]);
        let mut fx = Effects::new();
        p4.on_stab_response(
            ctx(4),
            PeerId(5),
            vec![
                SuccEntry::new(PeerId(9), PeerValue(55), EntryState::Joining),
                joined(1, 10),
                joined(2, 20),
            ],
            EntryState::Joined,
            PeerValue(50),
            None,
            &mut fx,
        );
        let peers: Vec<PeerId> = p4.succ_list().iter().map(|e| e.peer).collect();
        assert_eq!(peers, vec![PeerId(5), PeerId(9), PeerId(1)]);
        let effects = fx.drain();
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: RingMsg::JoinAck { joining } }
                if *to == PeerId(5) && *joining == PeerId(9)
        )));
    }

    #[test]
    fn far_predecessor_drops_joining_entry_without_ack() {
        // p3 is two hops before the inserter: the JOINING entry falls off the
        // end of its trimmed list and no ack is sent.
        let mut p3 = member(3, 30, 2, vec![joined(4, 40), joined(5, 50)]);
        let mut fx = Effects::new();
        p3.on_stab_response(
            ctx(3),
            PeerId(4),
            vec![
                joined(5, 50),
                SuccEntry::new(PeerId(9), PeerValue(55), EntryState::Joining),
                joined(1, 10),
            ],
            EntryState::Joined,
            PeerValue(40),
            None,
            &mut fx,
        );
        let peers: Vec<PeerId> = p3.succ_list().iter().map(|e| e.peer).collect();
        assert_eq!(peers, vec![PeerId(4), PeerId(5)]);
        assert!(!fx.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: RingMsg::JoinAck { .. },
                ..
            }
        )));
    }

    #[test]
    fn leaving_successor_lengthens_list_and_far_pred_acks() {
        // p5 stabilizes with the LEAVING peer p (value 55): the list keeps p
        // as a LEAVING prefix and lengthens to d + 1.
        let mut p5 = member(5, 50, 2, vec![joined(7, 55), joined(1, 10)]);
        let mut fx = Effects::new();
        p5.on_stab_response(
            ctx(5),
            PeerId(7),
            vec![joined(1, 10), joined(2, 20)],
            EntryState::Leaving,
            PeerValue(55),
            None,
            &mut fx,
        );
        let states: Vec<EntryState> = p5.succ_list().iter().map(|e| e.state).collect();
        assert_eq!(
            states,
            vec![EntryState::Leaving, EntryState::Joined, EntryState::Joined]
        );
        assert_eq!(p5.succ_list().len(), 3);

        // p4 then stabilizes with p5: it keeps [p5, p(L), p1] and, seeing the
        // LEAVING entry in the penultimate slot, acks the leaving peer.
        let mut p4 = member(4, 40, 2, vec![joined(5, 50), joined(7, 55)]);
        let mut fx4 = Effects::new();
        p4.on_stab_response(
            ctx(4),
            PeerId(5),
            p5.succ_list().to_vec(),
            EntryState::Joined,
            PeerValue(50),
            None,
            &mut fx4,
        );
        let peers: Vec<PeerId> = p4.succ_list().iter().map(|e| e.peer).collect();
        assert_eq!(peers, vec![PeerId(5), PeerId(7), PeerId(1)]);
        assert!(fx4.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: RingMsg::LeaveAck } if *to == PeerId(7)
        )));
    }

    #[test]
    fn proactive_propagation_pokes_predecessor() {
        let mut p4 = member(4, 40, 2, vec![joined(5, 50), joined(1, 10)]);
        p4.pred = Some((PeerId(3), PeerValue(30)));
        let mut fx = Effects::new();
        p4.on_stab_response(
            ctx(4),
            PeerId(5),
            vec![
                SuccEntry::new(PeerId(9), PeerValue(55), EntryState::Joining),
                joined(1, 10),
                joined(2, 20),
            ],
            EntryState::Joined,
            PeerValue(50),
            None,
            &mut fx,
        );
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: RingMsg::StabilizeNow } if *to == PeerId(3)
        )));
    }

    #[test]
    fn new_successor_event_emitted_when_first_succ_changes() {
        let mut p4 = member(4, 40, 2, vec![joined(5, 50), joined(1, 10)]);
        p4.last_new_succ = None;
        let mut fx = Effects::new();
        p4.on_stab_response(
            ctx(4),
            PeerId(5),
            vec![joined(1, 10), joined(2, 20)],
            EntryState::Joined,
            PeerValue(50),
            None,
            &mut fx,
        );
        assert!(p4
            .drain_events()
            .iter()
            .any(|e| matches!(e, RingEvent::NewSuccessor { peer, .. } if *peer == PeerId(5))));
    }

    #[test]
    fn a_member_that_knows_only_itself_stabilizes_with_its_live_predecessor() {
        // A two-member ring whose other member p2 is this peer's
        // predecessor, while this peer's list names nobody but itself.
        let mut p4 = member(4, 40, 2, vec![joined(4, 40)]);
        p4.pred = Some((PeerId(2), PeerValue(20)));
        p4.pred_heard = SimTime::from_secs(1);
        let mut fx = Effects::new();
        p4.run_stabilization(ctx(4), &mut fx);
        assert!(matches!(
            &fx.drain()[..],
            [Effect::Send { to, msg: RingMsg::StabRequest { .. } }] if *to == PeerId(2)
        ));
        p4.on_stab_response(
            ctx(4),
            PeerId(2),
            vec![joined(4, 40), joined(2, 20)],
            EntryState::Joined,
            PeerValue(20),
            Some((PeerId(4), PeerValue(40))),
            &mut fx,
        );
        let peers: Vec<PeerId> = p4.succ_list().iter().map(|e| e.peer).collect();
        assert_eq!(peers, vec![PeerId(2), PeerId(4)]);
        assert!(p4
            .drain_events()
            .iter()
            .any(|e| matches!(e, RingEvent::NewSuccessor { peer, .. } if *peer == PeerId(2))));

        // Once the predecessor's lease has run out, the sole survivor adopts
        // itself as its predecessor, as before.
        let mut alone = member(4, 40, 2, vec![joined(4, 40)]);
        alone.pred = Some((PeerId(2), PeerValue(20)));
        let late = SimTime::from_secs(1) + SystemConfig::fast().stabilization_period * 4;
        alone.pred_heard = SimTime::from_secs(1);
        alone.run_stabilization(LayerCtx::new(PeerId(4), late), &mut fx);
        assert!(fx.is_empty());
        assert_eq!(alone.pred(), Some((PeerId(4), PeerValue(40))));
        assert!(matches!(
            &alone.drain_events()[..],
            [RingEvent::NewPredecessor { peer, .. }] if *peer == PeerId(4)
        ));
    }

    #[test]
    fn the_in_place_rebuild_keeps_the_first_entry_of_every_peer() {
        let leaving =
            |peer, value| SuccEntry::new(PeerId(peer), PeerValue(value), EntryState::Leaving);
        let joining = SuccEntry::new(PeerId(9), PeerValue(45), EntryState::Joining);
        let responder = |peer, value| SuccEntry {
            stabilized: true,
            ..SuccEntry::new(PeerId(peer), PeerValue(value), EntryState::Joined)
        };
        let unstab = |e: SuccEntry| SuccEntry {
            stabilized: false,
            ..e
        };

        // An inserting peer whose JOINING head is also the responder keeps
        // the head as it was; the responder's own entry is a duplicate.
        let mut p = member(4, 40, 3, vec![joining, joined(1, 10)]);
        p.phase = RingPhase::Inserting;
        p.rebuild_succ_list(responder(9, 45), vec![joined(1, 10), joined(9, 45)]);
        assert_eq!(p.succ_list(), [joining, unstab(joined(1, 10))]);

        // LEAVING entries ahead of the responder are kept in order, the
        // JOINED ones between them and anything past the responder are not.
        let mut p = member(
            4,
            40,
            3,
            vec![
                leaving(7, 42),
                joined(3, 43),
                leaving(8, 44),
                joined(5, 50),
                leaving(6, 55),
            ],
        );
        p.rebuild_succ_list(responder(5, 50), vec![joined(1, 10)]);
        assert_eq!(
            p.succ_list(),
            [
                leaving(7, 42),
                leaving(8, 44),
                responder(5, 50),
                unstab(joined(1, 10))
            ]
        );

        // A peer named by both lists, or twice by one, keeps its first entry:
        // the kept LEAVING entry over the responder's JOINED copy of it, the
        // responder over its own appearance in its list. Not inserting, a
        // JOINING head is dropped like any other entry ahead.
        let mut p = member(
            4,
            40,
            3,
            vec![joining, leaving(7, 42), leaving(7, 42), joined(5, 50)],
        );
        p.rebuild_succ_list(
            responder(5, 50),
            vec![
                joined(7, 42),
                joined(5, 50),
                joined(1, 10),
                joined(1, 10),
                joined(2, 20),
            ],
        );
        let peers: Vec<u64> = p.succ_list().iter().map(|e| e.peer.raw()).collect();
        assert_eq!(peers, [7, 5, 1, 2]);
        assert_eq!(p.succ_list()[0], leaving(7, 42));
        assert_eq!(p.succ_list()[1], responder(5, 50));
    }

    #[test]
    fn duplicate_entries_are_removed() {
        let mut p = member(4, 40, 3, vec![joined(5, 50)]);
        let mut fx = Effects::new();
        p.on_stab_response(
            ctx(4),
            PeerId(5),
            vec![joined(1, 10), joined(5, 50), joined(1, 10), joined(2, 20)],
            EntryState::Joined,
            PeerValue(50),
            None,
            &mut fx,
        );
        let peers: Vec<PeerId> = p.succ_list().iter().map(|e| e.peer).collect();
        assert_eq!(peers, vec![PeerId(5), PeerId(1), PeerId(2)]);
    }
}
