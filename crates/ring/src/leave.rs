//! `leave`: departing the ring without reducing system availability.
//!
//! The PEPPER version (Section 5.1) keeps the leaving peer in the `LEAVING`
//! state while every predecessor pointing at it lengthens its successor list
//! by one (piggybacked on stabilization, see [`crate::stabilization`]). Only
//! when the farthest such predecessor acknowledges does the peer emit
//! [`RingEvent::LeaveComplete`]; the layer above then performs the Data Store
//! merge hand-off and finally calls [`RingState::depart`].
//!
//! The naive baseline simply departs immediately, which is what allows a
//! single subsequent failure to disconnect the ring (Figure 14).

use pepper_net::{Effects, LayerCtx};
use pepper_types::Protocol;

use crate::entry::RingPhase;
use crate::events::RingEvent;
use crate::messages::RingMsg;
use crate::state::RingState;

impl RingState {
    /// Begins leaving the ring.
    ///
    /// With the PEPPER protocol [`RingEvent::LeaveComplete`] is emitted once
    /// the leave ack arrives; with the naive protocol it is emitted
    /// immediately and the peer departs on the spot. Returns `false`, doing
    /// nothing, when this peer is not `JOINED`.
    pub fn leave(&mut self, ctx: LayerCtx, fx: &mut Effects<RingMsg>) -> bool {
        if self.phase != RingPhase::Joined {
            return false;
        }
        self.leave_started = Some(ctx.now);

        if self.cfg.protocol == Protocol::Naive {
            // Naive leave: just go. The ring is not told anything; dangling
            // pointers are discovered later by pings and stabilization.
            self.emit(RingEvent::LeaveComplete {
                elapsed: std::time::Duration::ZERO,
            });
            return true;
        }

        self.phase = RingPhase::Leaving;
        match self.pred {
            Some((pred, _)) if pred != self.id => fx.send(pred, RingMsg::StabilizeNow),
            _ => {
                // Only peer in the ring: nobody points at us, leaving cannot
                // reduce availability.
                self.on_leave_ack(ctx);
            }
        }
        true
    }

    /// Handles the leave ack: all predecessors pointing at this peer have
    /// lengthened their successor lists, so it is safe to go.
    pub(crate) fn on_leave_ack(&mut self, ctx: LayerCtx) {
        if self.phase != RingPhase::Leaving {
            return;
        }
        let Some(started) = self.leave_started else {
            return;
        };
        // Remain in the LEAVING phase (still answering ring traffic and
        // scans) until the layer above finishes the merge hand-off and calls
        // `depart`. Emitting the event twice is prevented by clearing the
        // start timestamp.
        self.leave_started = None;
        self.emit(RingEvent::LeaveComplete {
            elapsed: ctx.now - started,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::SuccEntry;
    use pepper_net::{Effect, ProtocolLayer, SimTime};
    use pepper_types::{PeerId, PeerValue};
    use pepper_types::{Protocol, SystemConfig};
    use std::time::Duration;

    fn ctx_at(id: u64, secs: u64) -> LayerCtx {
        LayerCtx::new(PeerId(id), SimTime::from_secs(secs))
    }

    fn joined(peer: u64, value: u64) -> SuccEntry {
        SuccEntry::joined_stab(PeerId(peer), PeerValue(value))
    }

    #[test]
    fn pepper_leave_waits_for_ack() {
        let mut p = RingState::new_first(
            PeerId(7),
            PeerValue(70),
            SystemConfig::fast().with_succ_list_len(2),
        );
        p.succ_list = vec![joined(1, 10), joined(2, 20)];
        p.pred = Some((PeerId(5), PeerValue(50)));
        let mut fx = Effects::new();
        assert!(p.leave(ctx_at(7, 10), &mut fx));
        assert_eq!(p.phase(), RingPhase::Leaving);
        assert!(p.drain_events().is_empty());
        // Predecessor is poked proactively.
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: RingMsg::StabilizeNow } if *to == PeerId(5)
        )));

        // The ack completes the operation but the peer stays LEAVING until
        // the hand-off is done and `depart` is called.
        p.on_leave_ack(ctx_at(7, 12));
        match &p.drain_events()[0] {
            RingEvent::LeaveComplete { elapsed } => assert_eq!(*elapsed, Duration::from_secs(2)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.phase(), RingPhase::Leaving);
        // A duplicate ack does not emit a second completion.
        p.on_leave_ack(ctx_at(7, 13));
        assert!(p.drain_events().is_empty());

        p.depart();
        assert_eq!(p.phase(), RingPhase::Free);
    }

    #[test]
    fn naive_leave_completes_immediately() {
        let mut p = RingState::new_first(
            PeerId(7),
            PeerValue(70),
            SystemConfig::fast()
                .with_succ_list_len(2)
                .with_protocol(Protocol::Naive),
        );
        p.succ_list = vec![joined(1, 10)];
        p.pred = Some((PeerId(5), PeerValue(50)));
        let mut fx = Effects::new();
        assert!(p.leave(ctx_at(7, 10), &mut fx));
        assert!(matches!(
            p.drain_events()[0],
            RingEvent::LeaveComplete { elapsed } if elapsed == Duration::ZERO
        ));
        // No ring traffic whatsoever.
        assert!(fx.is_empty());
    }

    #[test]
    fn only_peer_in_ring_leaves_instantly() {
        let mut p = RingState::new_first(
            PeerId(0),
            PeerValue(1),
            SystemConfig::fast().with_succ_list_len(2),
        );
        let mut fx = Effects::new();
        assert!(p.leave(ctx_at(0, 3), &mut fx));
        assert!(p
            .drain_events()
            .iter()
            .any(|e| matches!(e, RingEvent::LeaveComplete { .. })));
    }

    #[test]
    fn leave_rejected_while_inserting_or_free() {
        let mut p = RingState::new_first(
            PeerId(7),
            PeerValue(70),
            SystemConfig::fast().with_succ_list_len(2),
        );
        p.phase = RingPhase::Inserting;
        let mut fx = Effects::new();
        assert!(!p.leave(ctx_at(7, 1), &mut fx));
        let mut free = RingState::new_free(PeerId(8), SystemConfig::fast().with_succ_list_len(2));
        assert!(!free.leave(ctx_at(8, 1), &mut fx));
    }

    #[test]
    fn stray_leave_ack_is_ignored() {
        let mut p = RingState::new_first(
            PeerId(7),
            PeerValue(70),
            SystemConfig::fast().with_succ_list_len(2),
        );
        p.on_leave_ack(ctx_at(7, 1));
        assert!(p.drain_events().is_empty());
        assert_eq!(p.phase(), RingPhase::Joined);
    }
}
