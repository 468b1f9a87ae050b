//! `insertSucc`: inserting a new peer as this peer's successor.
//!
//! The PEPPER version (Section 4.3.1, Algorithms 1 and 8–11) inserts the new
//! peer as a `JOINING` entry, waits for the join ack produced by the
//! stabilization protocol (see [`crate::stabilization`]), and only then sends
//! the new peer its successor list, transitioning it to `JOINED`.
//!
//! The naive baseline (Section 6.2) simply hands the new peer a successor
//! list right away — which is exactly what allows the inconsistent-ring
//! scenario of Section 4.2.1.

use pepper_net::{Effects, LayerCtx, SimTime};
use pepper_types::{PeerId, PeerValue, Protocol};

use crate::entry::{EntryState, RingPhase, SuccEntry};
use crate::events::RingEvent;
use crate::messages::RingMsg;
use crate::state::{PendingInsert, RingState};

impl RingState {
    /// Begins inserting `new_peer` (currently a free peer) as this peer's
    /// successor with ring value `new_value`.
    ///
    /// With the PEPPER protocol the operation completes asynchronously: a
    /// [`RingEvent::InsertSuccComplete`] is emitted once the new peer has
    /// installed its successor list and confirmed. With the naive protocol
    /// the join message is sent immediately. A peer that is not `JOINED`
    /// refuses with [`RingEvent::InsertSuccAborted`].
    pub fn insert_succ(
        &mut self,
        ctx: LayerCtx,
        new_peer: PeerId,
        new_value: PeerValue,
        fx: &mut Effects<RingMsg>,
    ) {
        if self.phase != RingPhase::Joined {
            self.emit(RingEvent::InsertSuccAborted { new_peer });
            return;
        }
        self.pending_insert = Some(PendingInsert {
            new_peer,
            new_value,
            started: ctx.now,
        });
        // Abort guard: the joining peer is not a ring member yet, so its
        // fail-stop is invisible to the ping loop — without this timer the
        // inserter would stay in INSERTING (and its Data Store in the split)
        // forever.
        fx.timer(
            self.cfg.insert_timeout(),
            RingMsg::InsertTimeout {
                peer: new_peer,
                started: ctx.now,
            },
        );

        if self.cfg.protocol == Protocol::Naive {
            // Naive insertSucc: the new peer becomes part of the ring
            // immediately, no predecessor is told about it.
            let succ_list_for_new = self.succ_list.clone();
            self.succ_list.insert(
                0,
                SuccEntry {
                    peer: new_peer,
                    value: new_value,
                    state: EntryState::Joined,
                    stabilized: true,
                },
            );
            self.trim_succ_list();
            self.maybe_emit_new_successor();
            fx.send(
                new_peer,
                RingMsg::Join {
                    succ_list: succ_list_for_new,
                    pred: self.id,
                    pred_value: self.value,
                    your_value: new_value,
                },
            );
            return;
        }

        // PEPPER insertSucc: insert as JOINING and wait for the ack.
        self.phase = RingPhase::Inserting;
        self.succ_list
            .insert(0, SuccEntry::new(new_peer, new_value, EntryState::Joining));

        match self.pred {
            Some((pred, _)) if pred != self.id => {
                // Poke the predecessor so the JOINING entry propagates
                // without waiting for the periodic stabilization (the
                // optimization of Sections 4.3.1 and 6.3.1).
                fx.send(pred, RingMsg::StabilizeNow);
            }
            _ => {
                // Single-peer ring (or unknown predecessor pointing at
                // ourselves): no other peer needs to learn about the new
                // peer, complete immediately.
                self.on_join_ack(ctx, new_peer, fx);
            }
        }
    }

    /// Handles the join ack: every relevant predecessor now knows about the
    /// joining peer, so it can transition to `JOINED`.
    pub(crate) fn on_join_ack(
        &mut self,
        _ctx: LayerCtx,
        joining: PeerId,
        fx: &mut Effects<RingMsg>,
    ) {
        if self.phase != RingPhase::Inserting {
            return;
        }
        let Some(pending) = self.pending_insert else {
            return;
        };
        if pending.new_peer != joining {
            return;
        }
        // Transition the head entry to JOINED.
        if let Some(first) = self.succ_list.first_mut() {
            if first.peer == joining && first.state == EntryState::Joining {
                first.state = EntryState::Joined;
                first.stabilized = true;
            }
        }
        self.phase = RingPhase::Joined;
        self.trim_succ_list();
        // The freshly joined peer is now this peer's first stabilized
        // successor: announce it to the higher layers right away.
        self.maybe_emit_new_successor();
        // Hand the new peer its successor list (everything after itself) and
        // its predecessor (us).
        let succ_list_for_new: Vec<SuccEntry> = self
            .succ_list
            .iter()
            .skip(1)
            .copied()
            .filter(|e| e.peer != joining)
            .collect();
        fx.send(
            joining,
            RingMsg::Join {
                succ_list: succ_list_for_new,
                pred: self.id,
                pred_value: self.value,
                your_value: pending.new_value,
            },
        );
    }

    /// Handles the final join message at the joining peer: install the
    /// successor list and become a full member.
    pub(crate) fn on_join(
        &mut self,
        ctx: LayerCtx,
        succ_list: Vec<SuccEntry>,
        pred: PeerId,
        pred_value: PeerValue,
        your_value: PeerValue,
        fx: &mut Effects<RingMsg>,
    ) {
        if self.phase != RingPhase::Free {
            return;
        }
        self.value = your_value;
        self.pred = Some((pred, pred_value));
        self.pred_heard = ctx.now;
        let mut list = succ_list;
        if list.is_empty() {
            // Two-peer ring: our only successor is our inserter.
            list.push(SuccEntry::joined_stab(pred, pred_value));
        }
        if let Some(first) = list.first_mut() {
            first.stabilized = true;
        }
        self.succ_list = list;
        self.trim_succ_list();
        self.phase = RingPhase::Joined;
        self.last_new_succ = None;
        self.maybe_emit_new_successor();
        fx.send(pred, RingMsg::JoinInstalled);
        self.emit(RingEvent::Joined {
            value: your_value,
            pred,
            pred_value,
        });
    }

    /// Handles the insert guard: the join never completed (the joining peer
    /// most likely fail-stopped mid-join); abort the operation so splits and
    /// leaves become possible again. The composed peer reacts to
    /// [`RingEvent::InsertSuccAborted`] by cancelling the Data Store split
    /// and returning the peer to the free pool (which refuses peers that
    /// were killed).
    pub(crate) fn on_insert_timeout(&mut self, _ctx: LayerCtx, peer: PeerId, started: SimTime) {
        let Some(pending) = self.pending_insert else {
            return;
        };
        if pending.new_peer != peer || pending.started != started {
            return; // a different (e.g. retried) insert owns the state now
        }
        self.pending_insert = None;
        if self.phase == RingPhase::Inserting {
            self.phase = RingPhase::Joined;
        }
        self.succ_list
            .retain(|e| !(e.peer == peer && e.state == EntryState::Joining));
        self.maybe_emit_new_successor();
        self.emit(RingEvent::InsertSuccAborted { new_peer: peer });
    }

    /// Handles the joining peer's confirmation at the inserter: the
    /// `insertSucc` operation is complete.
    pub(crate) fn on_join_installed(&mut self, ctx: LayerCtx, from: PeerId) {
        let Some(pending) = self.pending_insert else {
            return;
        };
        if pending.new_peer != from {
            return;
        }
        self.pending_insert = None;
        self.emit(RingEvent::InsertSuccComplete {
            new_peer: from,
            elapsed: ctx.now - pending.started,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepper_net::{Effect, ProtocolLayer, SimTime};
    use pepper_types::{Protocol, SystemConfig};
    use std::time::Duration;

    fn ctx_at(id: u64, secs: u64) -> LayerCtx {
        LayerCtx::new(PeerId(id), SimTime::from_secs(secs))
    }

    fn joined(peer: u64, value: u64) -> SuccEntry {
        SuccEntry::joined_stab(PeerId(peer), PeerValue(value))
    }

    #[test]
    fn pepper_insert_marks_joining_and_pokes_predecessor() {
        let mut p5 = RingState::new_first(
            PeerId(5),
            PeerValue(50),
            SystemConfig::fast().with_succ_list_len(2),
        );
        p5.succ_list = vec![joined(1, 10), joined(2, 20)];
        p5.pred = Some((PeerId(4), PeerValue(40)));
        let mut fx = Effects::new();
        p5.insert_succ(ctx_at(5, 1), PeerId(9), PeerValue(55), &mut fx);
        assert_eq!(p5.phase(), RingPhase::Inserting);
        assert_eq!(p5.succ_list()[0].peer, PeerId(9));
        assert_eq!(p5.succ_list()[0].state, EntryState::Joining);
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: RingMsg::StabilizeNow } if *to == PeerId(4)
        )));
        // The new peer has not been contacted yet.
        assert!(!fx.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: RingMsg::Join { .. },
                ..
            }
        )));
    }

    #[test]
    fn single_peer_ring_completes_immediately() {
        let mut p = RingState::new_first(
            PeerId(0),
            PeerValue(100),
            SystemConfig::fast().with_succ_list_len(3),
        );
        let mut fx = Effects::new();
        p.insert_succ(ctx_at(0, 1), PeerId(1), PeerValue(200), &mut fx);
        // The join message is sent straight away because no other peer needs
        // to learn about the new one.
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: RingMsg::Join { .. } } if *to == PeerId(1)
        )));
        assert_eq!(p.phase(), RingPhase::Joined);
        assert_eq!(p.succ_list()[0].peer, PeerId(1));
        assert_eq!(p.succ_list()[0].state, EntryState::Joined);
    }

    #[test]
    fn naive_insert_sends_join_immediately() {
        let mut p5 = RingState::new_first(
            PeerId(5),
            PeerValue(50),
            SystemConfig::fast()
                .with_succ_list_len(2)
                .with_protocol(Protocol::Naive),
        );
        p5.succ_list = vec![joined(1, 10), joined(2, 20)];
        p5.pred = Some((PeerId(4), PeerValue(40)));
        let mut fx = Effects::new();
        p5.insert_succ(ctx_at(5, 1), PeerId(9), PeerValue(55), &mut fx);
        assert_eq!(p5.phase(), RingPhase::Joined);
        assert_eq!(p5.succ_list()[0].peer, PeerId(9));
        assert_eq!(p5.succ_list()[0].state, EntryState::Joined);
        let sent: Vec<_> = fx.drain();
        assert!(sent.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: RingMsg::Join { .. } } if *to == PeerId(9)
        )));
        // Crucially, the predecessor p4 is never told — this is the source of
        // the inconsistency of Section 4.2.1.
        assert!(!sent
            .iter()
            .any(|e| matches!(e, Effect::Send { to, .. } if *to == PeerId(4))));
    }

    #[test]
    fn insert_rejected_while_not_joined() {
        let mut p = RingState::new_first(
            PeerId(5),
            PeerValue(50),
            SystemConfig::fast().with_succ_list_len(2),
        );
        p.phase = RingPhase::Leaving;
        let mut fx = Effects::new();
        p.insert_succ(ctx_at(5, 1), PeerId(9), PeerValue(55), &mut fx);
        assert!(fx.is_empty());
        assert!(matches!(
            p.drain_events()[0],
            RingEvent::InsertSuccAborted { new_peer } if new_peer == PeerId(9)
        ));
    }

    #[test]
    fn join_ack_promotes_entry_and_sends_join() {
        let mut p5 = RingState::new_first(
            PeerId(5),
            PeerValue(50),
            SystemConfig::fast().with_succ_list_len(2),
        );
        p5.succ_list = vec![joined(1, 10), joined(2, 20)];
        p5.pred = Some((PeerId(4), PeerValue(40)));
        let mut fx = Effects::new();
        p5.insert_succ(ctx_at(5, 1), PeerId(9), PeerValue(55), &mut fx);
        fx.drain();

        p5.on_join_ack(ctx_at(5, 2), PeerId(9), &mut fx);
        assert_eq!(p5.phase(), RingPhase::Joined);
        assert_eq!(p5.succ_list()[0].state, EntryState::Joined);
        let effects = fx.drain();
        match &effects[0] {
            Effect::Send {
                to,
                msg:
                    RingMsg::Join {
                        succ_list,
                        pred,
                        pred_value,
                        your_value,
                    },
            } => {
                assert_eq!(*to, PeerId(9));
                assert_eq!(*pred, PeerId(5));
                assert_eq!(*pred_value, PeerValue(50));
                assert_eq!(*your_value, PeerValue(55));
                // The new peer's successors are p5's old successors.
                assert_eq!(succ_list[0].peer, PeerId(1));
            }
            other => panic!("unexpected {other:?}"),
        }
        // A duplicate ack is ignored.
        p5.on_join_ack(ctx_at(5, 3), PeerId(9), &mut fx);
        assert!(fx.is_empty());
    }

    #[test]
    fn join_ack_for_unknown_peer_is_ignored() {
        let mut p5 = RingState::new_first(
            PeerId(5),
            PeerValue(50),
            SystemConfig::fast().with_succ_list_len(2),
        );
        p5.succ_list = vec![joined(1, 10)];
        p5.pred = Some((PeerId(4), PeerValue(40)));
        let mut fx = Effects::new();
        p5.insert_succ(ctx_at(5, 1), PeerId(9), PeerValue(55), &mut fx);
        fx.drain();
        p5.on_join_ack(ctx_at(5, 2), PeerId(77), &mut fx);
        assert_eq!(p5.phase(), RingPhase::Inserting);
        assert!(fx.is_empty());
    }

    #[test]
    fn joining_peer_installs_list_and_confirms() {
        let mut p9 = RingState::new_free(PeerId(9), SystemConfig::fast().with_succ_list_len(2));
        let mut fx = Effects::new();
        p9.on_join(
            ctx_at(9, 2),
            vec![joined(1, 10), joined(2, 20)],
            PeerId(5),
            PeerValue(50),
            PeerValue(55),
            &mut fx,
        );
        let events = p9.drain_events();
        assert_eq!(p9.phase(), RingPhase::Joined);
        assert_eq!(p9.value(), PeerValue(55));
        assert_eq!(p9.pred(), Some((PeerId(5), PeerValue(50))));
        assert_eq!(p9.succ_list()[0].peer, PeerId(1));
        assert!(p9.succ_list()[0].stabilized);
        assert!(events
            .iter()
            .any(|e| matches!(e, RingEvent::Joined { value, .. } if *value == PeerValue(55))));
        assert!(events
            .iter()
            .any(|e| matches!(e, RingEvent::NewSuccessor { peer, .. } if *peer == PeerId(1))));
        // The confirmation is all it sends: arming the periodic timers is
        // the composed peer's job, on the `Joined` event.
        let effects = fx.drain();
        assert!(matches!(
            &effects[..],
            [Effect::Send { to, msg: RingMsg::JoinInstalled }] if *to == PeerId(5)
        ));
    }

    #[test]
    fn joining_with_empty_list_points_back_at_inserter() {
        let mut p9 = RingState::new_free(PeerId(9), SystemConfig::fast().with_succ_list_len(2));
        let mut fx = Effects::new();
        p9.on_join(
            ctx_at(9, 2),
            vec![],
            PeerId(5),
            PeerValue(50),
            PeerValue(55),
            &mut fx,
        );
        assert_eq!(p9.succ_list()[0].peer, PeerId(5));
    }

    #[test]
    fn join_installed_completes_operation_with_elapsed_time() {
        let mut p5 = RingState::new_first(
            PeerId(5),
            PeerValue(50),
            SystemConfig::fast().with_succ_list_len(2),
        );
        p5.succ_list = vec![joined(1, 10)];
        p5.pred = Some((PeerId(4), PeerValue(40)));
        let mut fx = Effects::new();
        p5.insert_succ(ctx_at(5, 1), PeerId(9), PeerValue(55), &mut fx);
        p5.on_join_ack(ctx_at(5, 2), PeerId(9), &mut fx);
        p5.drain_events();
        p5.on_join_installed(ctx_at(5, 3), PeerId(9));
        match &p5.drain_events()[0] {
            RingEvent::InsertSuccComplete { new_peer, elapsed } => {
                assert_eq!(*new_peer, PeerId(9));
                assert_eq!(*elapsed, Duration::from_secs(2));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Duplicate confirmations are ignored.
        p5.on_join_installed(ctx_at(5, 4), PeerId(9));
        assert!(p5.drain_events().is_empty());
    }

    #[test]
    fn join_message_ignored_once_joined() {
        let mut p = RingState::new_first(
            PeerId(9),
            PeerValue(55),
            SystemConfig::fast().with_succ_list_len(2),
        );
        let before = p.succ_list().to_vec();
        let mut fx = Effects::new();
        p.on_join(
            ctx_at(9, 2),
            vec![joined(1, 10)],
            PeerId(5),
            PeerValue(50),
            PeerValue(60),
            &mut fx,
        );
        assert_eq!(p.succ_list(), &before[..]);
        assert_eq!(p.value(), PeerValue(55));
        assert!(p.drain_events().is_empty());
    }
}
