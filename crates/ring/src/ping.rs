//! Successor pinging and fail-stop failure detection (Algorithm 14/15).
//!
//! Every peer periodically pings its first `JOINED` successor (and its first
//! entry if that entry is `LEAVING`, to detect the actual departure). A
//! missing reply within the ping timeout removes the successor from the list
//! and surfaces a [`RingEvent::SuccessorFailed`] so higher layers (the
//! Replication Manager) can react. Peers that have *departed* (naive leave or
//! post-merge) reply with `member = false`, which removes them promptly
//! without waiting for a timeout.

use pepper_net::{Effects, LayerCtx};
use pepper_types::PeerId;

use crate::entry::{EntryState, RingPhase};
use crate::events::RingEvent;
use crate::messages::RingMsg;
use crate::state::RingState;

impl RingState {
    /// Periodic ping tick: re-arm and probe.
    pub(crate) fn on_ping_tick(&mut self, _ctx: LayerCtx, fx: &mut Effects<RingMsg>) {
        fx.timer(self.cfg.ping_period, RingMsg::PingTick);
        if !self.is_member() {
            return;
        }
        // Ping the first JOINED successor.
        let joined_target = self
            .succ_list
            .iter()
            .find(|e| e.state == EntryState::Joined && e.peer != self.id)
            .map(|e| e.peer);
        if let Some(target) = joined_target {
            self.send_ping(target, fx);
        }
        // Additionally ping every LEAVING entry: the head to notice its
        // actual departure promptly, and the rest because a LEAVING entry
        // whose peer has since departed *and rejoined elsewhere* is a
        // phantom that the stabilization rebuild would otherwise preserve
        // forever (see `on_ping_reply`).
        let leaving: Vec<PeerId> = self
            .succ_list
            .iter()
            .filter(|e| e.state == EntryState::Leaving && e.peer != self.id)
            .map(|e| e.peer)
            .collect();
        for target in leaving {
            if Some(target) != joined_target {
                self.send_ping(target, fx);
            }
        }
    }

    fn send_ping(&mut self, target: PeerId, fx: &mut Effects<RingMsg>) {
        self.ping_seq += 1;
        let seq = self.ping_seq;
        self.outstanding_pings.push((target, seq));
        fx.send(target, RingMsg::Ping { seq });
        fx.timer(
            self.cfg.ping_timeout(),
            RingMsg::PingTimeout { target, seq },
        );
    }

    /// Answers a liveness probe. Departed peers answer `member = false`.
    pub(crate) fn on_ping(
        &mut self,
        _ctx: LayerCtx,
        from: PeerId,
        seq: u64,
        fx: &mut Effects<RingMsg>,
    ) {
        fx.send(
            from,
            RingMsg::PingReply {
                seq,
                member: self.is_member(),
                state: self.phase.as_entry_state(),
            },
        );
    }

    /// Handles a ping reply.
    pub(crate) fn on_ping_reply(
        &mut self,
        _ctx: LayerCtx,
        from: PeerId,
        seq: u64,
        member: bool,
        state: EntryState,
    ) {
        // A reply answers this ping and every earlier one to the same peer.
        self.outstanding_pings
            .retain(|&(target, s)| target != from || s > seq);
        if !self.is_member() {
            return;
        }
        if !member {
            // The peer has departed the ring (graceful leave already
            // completed): drop it from the list. JOINING entries are kept —
            // a peer being inserted truthfully answers "not a member yet"
            // (it may even be the old incarnation's LEAVING relic that was
            // pinged), and dropping the in-flight entry would wedge the
            // inserter in the INSERTING phase with nothing to promote.
            let before = self.succ_list.len();
            self.succ_list
                .retain(|e| e.peer != from || e.state == EntryState::Joining);
            if self.succ_list.len() != before {
                self.maybe_emit_new_successor();
            }
            return;
        }
        // A LEAVING entry answered JOINED: within one incarnation that
        // transition is impossible (a leave never reverts), so the peer must
        // have departed and *rejoined elsewhere* in the meantime. The entry
        // is a phantom of the old incarnation — drop it rather than
        // "updating" it to JOINED at a position the peer no longer occupies.
        let rejoined = state == EntryState::Joined
            && self
                .succ_list
                .iter()
                .any(|e| e.peer == from && e.state == EntryState::Leaving);
        if rejoined {
            // Drop only the LEAVING phantoms — the same peer may
            // legitimately appear again as a fresh JOINED entry at its new
            // position (possibly in this very list).
            self.succ_list
                .retain(|e| !(e.peer == from && e.state == EntryState::Leaving));
            self.maybe_emit_new_successor();
            return;
        }
        // Update the advertised state (e.g. learn that the successor is
        // LEAVING before the next stabilization round).
        for e in &mut self.succ_list {
            if e.peer == from {
                e.state = state;
            }
        }
    }

    /// Handles a ping timeout: if no reply with a sequence at least `seq`
    /// arrived from `target`, declare it failed.
    pub(crate) fn on_ping_timeout(&mut self, _ctx: LayerCtx, target: PeerId, seq: u64) {
        let Some(i) = self
            .outstanding_pings
            .iter()
            .position(|&p| p == (target, seq))
        else {
            return; // a reply to this ping (or a later one) arrived in time
        };
        self.outstanding_pings.swap_remove(i);
        if !self.is_member() {
            return;
        }
        if self.remove_peer(target) {
            self.emit(RingEvent::SuccessorFailed { peer: target });
            // If the failed peer is the one this peer was inserting, the
            // operation can never complete: abort it and return to JOINED so
            // splits and leaves are possible again. (The composed peer
            // reacts to `SuccessorFailed`, not `InsertSuccAborted`, so the
            // dead peer is not returned to the free pool.)
            if self.pending_insert.map(|p| p.new_peer) == Some(target) {
                self.pending_insert = None;
                if self.phase == RingPhase::Inserting {
                    self.phase = RingPhase::Joined;
                }
            }
            // If the head of the list is now a JOINING entry whose inserter
            // just failed, it will never be promoted by its inserter; drop it
            // and let stabilization rebuild the list.
            if self.phase != RingPhase::Inserting {
                while matches!(self.succ_list.first(), Some(e) if e.state == EntryState::Joining) {
                    self.succ_list.remove(0);
                }
            }
            self.maybe_emit_new_successor();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::SuccEntry;
    use pepper_net::{Effect, ProtocolLayer, SimTime};
    use pepper_types::PeerValue;
    use pepper_types::SystemConfig;

    fn ctx(id: u64) -> LayerCtx {
        LayerCtx::new(PeerId(id), SimTime::from_secs(1))
    }

    fn joined(peer: u64, value: u64) -> SuccEntry {
        SuccEntry::joined_stab(PeerId(peer), PeerValue(value))
    }

    fn member_with(list: Vec<SuccEntry>) -> RingState {
        let mut s = RingState::new_first(
            PeerId(4),
            PeerValue(40),
            SystemConfig::fast().with_succ_list_len(2),
        );
        s.succ_list = list;
        s
    }

    #[test]
    fn ping_tick_probes_first_joined_successor() {
        let mut p = member_with(vec![joined(5, 50), joined(1, 10)]);
        let mut fx = Effects::new();
        p.on_ping_tick(ctx(4), &mut fx);
        let effects = fx.drain();
        // Timer re-arm + ping + timeout guard.
        assert!(matches!(effects[0], Effect::Timer { .. }));
        assert!(matches!(
            &effects[1],
            Effect::Send { to, msg: RingMsg::Ping { .. } } if *to == PeerId(5)
        ));
        assert!(matches!(
            &effects[2],
            Effect::Timer { msg: RingMsg::PingTimeout { target, .. }, .. } if *target == PeerId(5)
        ));
    }

    #[test]
    fn leaving_head_is_also_pinged() {
        let mut p = member_with(vec![
            SuccEntry::new(PeerId(7), PeerValue(45), EntryState::Leaving),
            joined(5, 50),
        ]);
        let mut fx = Effects::new();
        p.on_ping_tick(ctx(4), &mut fx);
        let pinged: Vec<PeerId> = fx
            .iter()
            .filter_map(|e| match e {
                Effect::Send {
                    to,
                    msg: RingMsg::Ping { .. },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(pinged, vec![PeerId(5), PeerId(7)]);
    }

    #[test]
    fn ping_is_answered_with_membership() {
        let mut p = member_with(vec![joined(5, 50)]);
        let mut fx = Effects::new();
        p.on_ping(ctx(4), PeerId(3), 7, &mut fx);
        assert!(matches!(
            &fx.drain()[0],
            Effect::Send { to, msg: RingMsg::PingReply { seq: 7, member: true, .. } } if *to == PeerId(3)
        ));
        // A departed peer answers member = false.
        p.depart();
        p.on_ping(ctx(4), PeerId(3), 8, &mut fx);
        assert!(matches!(
            &fx.drain()[0],
            Effect::Send {
                msg: RingMsg::PingReply { member: false, .. },
                ..
            }
        ));
    }

    #[test]
    fn timeout_without_reply_removes_successor() {
        let mut p = member_with(vec![joined(5, 50), joined(1, 10)]);
        let mut fx = Effects::new();
        p.on_ping_tick(ctx(4), &mut fx);
        p.on_ping_timeout(ctx(4), PeerId(5), 1);
        let events = p.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, RingEvent::SuccessorFailed { peer } if *peer == PeerId(5))));
        assert!(p.succ_list().iter().all(|e| e.peer != PeerId(5)));
        // The next successor is announced.
        assert!(events
            .iter()
            .any(|e| matches!(e, RingEvent::NewSuccessor { peer, .. } if *peer == PeerId(1))));
    }

    #[test]
    fn reply_in_time_prevents_removal() {
        let mut p = member_with(vec![joined(5, 50), joined(1, 10)]);
        let mut fx = Effects::new();
        p.on_ping_tick(ctx(4), &mut fx);
        p.on_ping_reply(ctx(4), PeerId(5), 1, true, EntryState::Joined);
        p.on_ping_timeout(ctx(4), PeerId(5), 1);
        assert!(p.succ_list().iter().any(|e| e.peer == PeerId(5)));
        assert!(p.drain_events().is_empty());
    }

    #[test]
    fn reply_with_member_false_removes_departed_peer() {
        let mut p = member_with(vec![joined(7, 45), joined(5, 50)]);
        p.on_ping_reply(ctx(4), PeerId(7), 1, false, EntryState::Joined);
        assert!(p.succ_list().iter().all(|e| e.peer != PeerId(7)));
        assert!(p
            .drain_events()
            .iter()
            .any(|e| matches!(e, RingEvent::NewSuccessor { peer, .. } if *peer == PeerId(5))));
    }

    #[test]
    fn reply_updates_advertised_state_to_leaving() {
        let mut p = member_with(vec![joined(5, 50), joined(1, 10)]);
        p.on_ping_reply(ctx(4), PeerId(5), 1, true, EntryState::Leaving);
        assert_eq!(p.succ_list()[0].state, EntryState::Leaving);
    }

    #[test]
    fn reply_to_newer_ping_prevents_stale_timeout_removal() {
        let mut p = member_with(vec![joined(5, 50), joined(1, 10)]);
        let mut fx = Effects::new();
        // Two ping rounds: seq 1 then seq 2. Only the second is answered
        // (the first reply was lost) — the peer is clearly alive, so the
        // stale seq-1 timeout must not remove it.
        p.on_ping_tick(ctx(4), &mut fx);
        p.on_ping_tick(ctx(4), &mut fx);
        p.on_ping_reply(ctx(4), PeerId(5), 2, true, EntryState::Joined);
        p.on_ping_timeout(ctx(4), PeerId(5), 1);
        assert!(p.succ_list().iter().any(|e| e.peer == PeerId(5)));
        assert!(p.drain_events().is_empty());
    }

    #[test]
    fn unanswered_timeout_detects_failure_even_with_newer_pings_outstanding() {
        // Regression: if the ping period is shorter than the ping timeout,
        // newer outstanding pings must not mask the failure of the successor.
        let mut p = member_with(vec![joined(5, 50), joined(1, 10)]);
        let mut fx = Effects::new();
        p.on_ping_tick(ctx(4), &mut fx);
        p.on_ping_tick(ctx(4), &mut fx);
        p.on_ping_tick(ctx(4), &mut fx);
        // No reply ever arrived: the oldest timeout already removes the peer.
        p.on_ping_timeout(ctx(4), PeerId(5), 1);
        assert!(p.succ_list().iter().all(|e| e.peer != PeerId(5)));
        assert!(p
            .drain_events()
            .iter()
            .any(|e| matches!(e, RingEvent::SuccessorFailed { peer } if *peer == PeerId(5))));
    }

    #[test]
    fn answered_and_timed_out_pings_leave_nothing_behind() {
        // Every ping is settled by its reply or its timeout, so the
        // bookkeeping does not grow with the number of peers ever pinged.
        let mut p = member_with(vec![joined(5, 50)]);
        let mut fx = Effects::new();
        for target in 1000..2000u64 {
            p.send_ping(PeerId(target), &mut fx);
            let seq = p.ping_seq;
            if target % 2 == 0 {
                p.on_ping_reply(ctx(4), PeerId(target), seq, true, EntryState::Joined);
            }
            p.on_ping_timeout(ctx(4), PeerId(target), seq);
        }
        assert!(p.outstanding_pings.is_empty());
    }

    #[test]
    fn orphaned_joining_head_is_dropped_with_failed_inserter() {
        // Head of the list: a JOINING peer whose inserter (p5) fails.
        let mut p = member_with(vec![
            joined(5, 50),
            SuccEntry::new(PeerId(9), PeerValue(55), EntryState::Joining),
            joined(1, 10),
        ]);
        // Wait: the JOINING entry follows its inserter, so after removing p5
        // the JOINING entry is at the head and must be dropped too.
        let mut fx = Effects::new();
        p.on_ping_tick(ctx(4), &mut fx);
        p.on_ping_timeout(ctx(4), PeerId(5), 1);
        let peers: Vec<PeerId> = p.succ_list().iter().map(|e| e.peer).collect();
        assert_eq!(peers, vec![PeerId(1)]);
    }
}
