//! Ring stabilization (the paper's Algorithm 2 / appendix Algorithms 16–18).
//!
//! A peer contacts its first live successor, copies its successor list
//! (shifted by one), and applies the trimming rules that make the PEPPER
//! `insertSucc` and `leave` protocols work:
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
//!
//! # Cadence: stabilize on change
//!
//! A round re-reads the successor's list, so it is worth its two messages
//! only when that list, or this peer's own, changed. The successor is
//! pinged every `ping_period` (half the stabilization period) anyway, and
//! its `PingReply` carries a **digest** (`response_digest`) of what a
//! `StabResponse` from it would carry now: every entry's peer, value and
//! state, plus the replier's state, value and predecessor. The requester
//! computes the same function over each `StabResponse` it applies. A round
//! runs:
//!
//! * at every `StabilizeTick`. The tick re-arms after `stabilization_period
//!   × b`; `b` doubles up to [`STAB_FLOOR`] while this peer's own digest is
//!   unchanged since its last tick, and falls back to 1 when it changed;
//! * at once, on a `PingReply` from the stabilization target whose digest
//!   differs from the last response applied from that peer (or when no
//!   response from it was applied yet): a change propagates one ping period
//!   per hop;
//! * at a `PingTick`, when this peer's list changed since the last applied
//!   rebuild (a ping timeout, a join in flight), or its value since its
//!   last request (a split, a merge). The value is checked against the
//!   request, not the rebuild: a merge grant installed while a round is in
//!   flight changes the value after the request left, and the successor
//!   would otherwise keep the absorber's old value and take over the range
//!   the absorber just took;
//! * at a `PingTick`, once a stabilization period has passed since the last
//!   round (with half a ping period of slack), while the peer is
//!   *unsettled*: its successor's last response did not name it as the
//!   predecessor, its phase is not `JOINED`, its list holds a non-`JOINED`
//!   entry, or its target is not pinged (the predecessor rule, or no
//!   target at all);
//! * on a `StabilizeNow` poke, as before.
//!
//! A digest collision can only delay a round to the next tick, at most
//! `STAB_FLOOR` periods later; it never skips the rules of a round.
//!
//! The predecessor lease (three stabilization periods, see
//! `RingState::update_pred`) is refreshed only by stabilization requests,
//! so a settled predecessor's lease usually lapses between its backed-off
//! ticks. A farther peer that stabilizes to this peer in that window is
//! adopted, typically the predecessor of a peer that just started to leave.
//! The adoption changes this peer's digest: a live predecessor sees the
//! change in its next `PingReply`, stabilizes at once and, being closer, is
//! re-adopted; once the leave completed, the absorber's new value arrives
//! with its next `PingTick`. Both land well inside the index layer's
//! `PredTakeover` re-validation (three stabilization periods), which then
//! finds its takeover stale.

use pepper_net::{Effects, LayerCtx, SimTime};
use pepper_types::range::in_half_open;
use pepper_types::{PeerId, PeerValue};

use crate::entry::{EntryState, RingPhase, SuccEntry};
use crate::events::RingEvent;
use crate::messages::RingMsg;
use crate::state::RingState;

/// The largest multiple of `stabilization_period` a settled peer's
/// `StabilizeTick` backs off to.
pub const STAB_FLOOR: u32 = 8;

/// What a peer remembers of its stabilization rounds, to run them on change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StabMemo {
    /// The responder and digest of the last applied `StabResponse`.
    applied: Option<(PeerId, u64)>,
    /// Whether that response named this peer as the responder's predecessor.
    named_pred: bool,
    /// Digest of this peer's successor list right after that response was
    /// applied.
    rebuilt: Option<u64>,
    /// The value this peer's last `StabRequest` carried to its successor.
    sent_value: Option<PeerValue>,
    /// This peer's own [`RingState::own_digest`] at its last tick.
    at_tick: u64,
    /// The tick's current period, in stabilization periods (1..=STAB_FLOOR).
    backoff: u32,
    /// When this peer last sent a `StabRequest`.
    last_round: Option<SimTime>,
    /// The peer the last `notify` repair inserted, and the value of the
    /// responder whose predecessor pointer named it: until the next applied
    /// response, the repaired entry is only trusted inside that gap.
    repaired: Option<(PeerId, PeerValue)>,
}

impl Default for StabMemo {
    fn default() -> Self {
        StabMemo {
            applied: None,
            named_pred: false,
            rebuilt: None,
            sent_value: None,
            at_tick: 0,
            backoff: 1,
            last_round: None,
            repaired: None,
        }
    }
}

/// One step of the digest: FxHash's rotate, xor and multiply.
fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
}

fn list_digest(list: &[SuccEntry]) -> u64 {
    list.iter().fold(0, |h, e| {
        mix(mix(mix(h, e.peer.raw()), e.value.raw()), e.state as u64)
    })
}

/// Digest of what a `StabResponse` carries: every entry's peer, value and
/// state (not the `stabilized` flag, which the requester resets), and the
/// responder's state, value and predecessor.
pub(crate) fn response_digest(
    list: &[SuccEntry],
    state: EntryState,
    value: PeerValue,
    pred: Option<(PeerId, PeerValue)>,
) -> u64 {
    let h = mix(mix(list_digest(list), value.raw()), state as u64);
    match pred {
        Some((peer, value)) => mix(mix(h, peer.raw()), value.raw()),
        None => mix(h, u64::MAX),
    }
}

impl RingState {
    /// The digest of the `StabResponse` this peer would send now; its
    /// `PingReply` carries it.
    pub(crate) fn own_digest(&self) -> u64 {
        let state = self.phase.as_entry_state();
        response_digest(&self.succ_list, state, self.value, self.pred)
    }

    /// Stabilization tick: re-arms after `stabilization_period × b`, where
    /// `b` doubles up to [`STAB_FLOOR`] while this peer's own digest is
    /// unchanged since the last tick and is 1 otherwise, then runs a round.
    pub(crate) fn on_stabilize_tick(&mut self, ctx: LayerCtx, fx: &mut Effects<RingMsg>) {
        let own = self.own_digest();
        let memo = &mut self.stab;
        memo.backoff = if own == memo.at_tick {
            (memo.backoff * 2).min(STAB_FLOOR)
        } else {
            1
        };
        memo.at_tick = own;
        fx.timer(
            self.cfg.stabilization_period * memo.backoff,
            RingMsg::StabilizeTick,
        );
        self.run_stabilization(ctx, fx);
    }

    /// Runs a round at a `PingTick` if this peer's list changed since the
    /// last applied rebuild or its value since its last request, or if it
    /// is unsettled and a stabilization period (less half a ping period) has
    /// passed since its last round.
    pub(crate) fn stabilize_if_due(&mut self, ctx: LayerCtx, fx: &mut Effects<RingMsg>) {
        let changed = self.stab.rebuilt != Some(list_digest(&self.succ_list))
            || self.stab.sent_value != Some(self.value);
        let period_passed = self.stab.last_round.map_or(true, |at| {
            ctx.now.duration_since(at) + self.cfg.ping_period() / 2 >= self.cfg.stabilization_period
        });
        if changed || (period_passed && self.unsettled(ctx.now)) {
            self.run_stabilization(ctx, fx);
        }
    }

    /// Runs a round now if `from` is the stabilization target and its
    /// ping-reported `digest` is not that of the last response applied from
    /// it.
    pub(crate) fn stabilize_on_digest(
        &mut self,
        ctx: LayerCtx,
        from: PeerId,
        digest: u64,
        fx: &mut Effects<RingMsg>,
    ) {
        if self.stab.applied != Some((from, digest))
            && self.stabilization_target(ctx.now) == Some(from)
        {
            self.run_stabilization(ctx, fx);
        }
    }

    /// Whether this peer must keep stabilizing every period: its successor
    /// has not accepted it as predecessor, it or an entry of its list is
    /// not `JOINED`, or its target is not one it pings.
    fn unsettled(&self, now: SimTime) -> bool {
        !self.stab.named_pred
            || self.phase != RingPhase::Joined
            || self.succ_list.iter().any(|e| e.state != EntryState::Joined)
            || self.stabilization_target(now).map_or(true, |target| {
                self.succ_list.iter().all(|e| e.peer != target)
            })
    }

    /// The peer this node currently stabilizes with: the first `JOINED`
    /// successor. `JOINING` entries (including the head while an
    /// `insertSucc` is in flight) are skipped by *state*, never by position
    /// — skipping by index would skip the real successor whenever the
    /// in-flight entry is missing or not at the head.
    ///
    /// One exception: a `JOINING` entry in front of the first `JOINED` one,
    /// behind a `LEAVING` one. The leaver is the `JOINING` peer's inserter,
    /// still answers, and is the one successor whose list says whether the
    /// join was acknowledged; a round with the `JOINED` peer farther on
    /// would anchor the rebuild past the `JOINING` entry and drop it.
    pub(crate) fn stabilization_target(&self, now: SimTime) -> Option<PeerId> {
        let other = |state| {
            self.succ_list
                .iter()
                .find(|e| e.state == state && e.peer != self.id)
                .map(|e| e.peer)
        };
        let first_joined = (self.succ_list.iter())
            .position(|e| e.state == EntryState::Joined && e.peer != self.id)
            .unwrap_or(self.succ_list.len());
        let ahead = &self.succ_list[..first_joined];
        if let Some(joining) = ahead.iter().position(|e| e.state == EntryState::Joining) {
            let mut behind = ahead[..joining].iter().rev();
            if let Some(e) = behind.find(|e| e.state == EntryState::Leaving && e.peer != self.id) {
                return Some(e.peer);
            }
        }
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
            self.stab.last_round = Some(ctx.now);
            self.stab.sent_value = Some(self.value);
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
            self.emit(RingEvent::NewPredecessor {
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
        // A peer the `notify` repair below inserted was named by a
        // predecessor pointer that may be stale: the peer may have left and
        // been recycled elsewhere since. If its first answer puts it outside
        // the gap it was learned in, its list is another part of the ring;
        // adopting it would cut every peer of that gap out of this list. Drop
        // the entry, like a departed successor. A value at either end of the
        // gap is a split in progress and is accepted.
        if let Some((repaired, bound)) = self.stab.repaired.take() {
            let v = responder_value.raw();
            if repaired == from
                && v != self.value.raw()
                && !in_half_open(self.value.raw(), v, bound.raw())
            {
                self.succ_list.retain(|e| e.peer != from);
                self.emit(RingEvent::SuccessorDeparted { peer: from });
                self.maybe_emit_new_successor();
                return;
            }
        }
        self.stab.applied = Some((
            from,
            response_digest(
                &their_list,
                responder_state,
                responder_value,
                responder_pred,
            ),
        ));
        self.stab.named_pred = responder_pred.is_some_and(|(p, _)| p == self.id);

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
        //
        // The responder may still name a predecessor that has since moved
        // behind this peer: a splitter hands its old value to the peer it
        // inserts and moves down, and the responder keeps the old pointer
        // until a closer peer stabilizes to it. That predecessor is this
        // peer's own predecessor, so it is not re-learned as a successor.
        if let Some((pp, pv)) = responder_pred {
            if pp != self.id
                && pp != from
                && self.pred.map(|(p, _)| p) != Some(pp)
                && pepper_types::in_open(self.value.raw(), pv.raw(), responder_value.raw())
                && !self.succ_list.iter().any(|e| e.peer == pp)
            {
                self.succ_list
                    .insert(0, SuccEntry::new(pp, pv, EntryState::Joined));
                self.stab.repaired = Some((pp, responder_value));
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
        self.stab.rebuilt = Some(list_digest(&self.succ_list));
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
    fn a_leaving_successor_is_not_skipped_past_the_joining_peer_it_inserted() {
        // p1's successor p3 is leaving, and p3's insertee p4 still shows as
        // JOINING here after p3's join ack promoted it. A round with p0
        // would anchor the rebuild past p4 and drop it from the list.
        let mut p1 = member(
            1,
            26,
            4,
            vec![
                SuccEntry::new(PeerId(3), PeerValue(33), EntryState::Leaving),
                SuccEntry::new(PeerId(4), PeerValue(75), EntryState::Joining),
                joined(0, 12),
                joined(2, 17),
            ],
        );
        let mut fx = Effects::new();
        p1.run_stabilization(ctx(1), &mut fx);
        assert!(matches!(&fx.drain()[0], Effect::Send { to, .. } if *to == PeerId(3)));
        // The leaver's answer shows p4 JOINED: p4 is the next target.
        p1.on_stab_response(
            ctx(1),
            PeerId(3),
            vec![joined(4, 75), joined(0, 12), joined(2, 17), joined(1, 26)],
            EntryState::Leaving,
            PeerValue(33),
            Some((PeerId(1), PeerValue(26))),
            &mut fx,
        );
        let peers: Vec<PeerId> = p1.succ_list().iter().map(|e| e.peer).collect();
        assert_eq!(peers[..2], [PeerId(3), PeerId(4)]);
        assert_eq!(
            p1.stabilization_target(SimTime::from_secs(1)),
            Some(PeerId(4))
        );
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

    /// Stabilization requests among `fx`'s effects.
    fn requests(fx: &Effects<RingMsg>) -> Vec<PeerId> {
        fx.iter()
            .filter_map(|e| match e {
                Effect::Send {
                    to,
                    msg: RingMsg::StabRequest { .. },
                } => Some(*to),
                _ => None,
            })
            .collect()
    }

    /// p4 (value 40, predecessor p3) after a round with p5 whose response
    /// named `named` as p5's predecessor; also returns that response's
    /// digest.
    fn after_round_with_p5(named: u64) -> (RingState, u64) {
        let mut p4 = member(4, 40, 2, vec![joined(5, 50), joined(1, 10)]);
        p4.pred = Some((PeerId(3), PeerValue(30)));
        let theirs = vec![joined(1, 10), joined(2, 20)];
        let pred = Some((PeerId(named), PeerValue(named * 10)));
        let digest = response_digest(&theirs, EntryState::Joined, PeerValue(50), pred);
        let mut fx = Effects::new();
        p4.run_stabilization(ctx(4), &mut fx);
        p4.on_stab_response(
            ctx(4),
            PeerId(5),
            theirs,
            EntryState::Joined,
            PeerValue(50),
            pred,
            &mut fx,
        );
        (p4, digest)
    }

    /// One ping exchange with p5 at `at`, p5 answering with `digest`.
    fn ping_p5(p4: &mut RingState, at: SimTime, digest: u64, fx: &mut Effects<RingMsg>) {
        let c = LayerCtx::new(PeerId(4), at);
        p4.on_ping_tick(c, fx);
        let seq = p4.ping_seq;
        p4.on_ping_reply(c, PeerId(5), seq, true, EntryState::Joined, digest, fx);
    }

    #[test]
    fn a_settled_peer_sends_no_request_between_its_backed_off_ticks() {
        let (mut p4, digest) = after_round_with_p5(4);
        let cfg = p4.config().clone();
        let mut at = SimTime::from_secs(1);
        let mut next_tick = at;
        let mut tick_periods = Vec::new();
        for _ in 0..80 {
            let mut fx = Effects::new();
            if at >= next_tick {
                p4.on_stabilize_tick(LayerCtx::new(PeerId(4), at), &mut fx);
                assert_eq!(requests(&fx), [PeerId(5)], "every tick stabilizes");
                let delay = fx
                    .iter()
                    .find_map(|e| match e {
                        Effect::Timer {
                            delay,
                            msg: RingMsg::StabilizeTick,
                        } => Some(*delay),
                        _ => None,
                    })
                    .expect("the tick re-arms");
                tick_periods.push(delay.as_millis() / cfg.stabilization_period.as_millis());
                next_tick = at + delay;
                fx.drain();
            }
            ping_p5(&mut p4, at, digest, &mut fx);
            assert_eq!(requests(&fx), [], "no round between ticks at {at:?}");
            at += cfg.ping_period();
        }
        // 80 ping periods are 40 stabilization periods: the tick backs off
        // to the floor and stays there.
        assert_eq!(tick_periods, [1, 2, 4, 8, 8, 8, 8, 8]);
        assert_eq!(STAB_FLOOR, 8);
    }

    #[test]
    fn a_changed_digest_runs_exactly_one_round() {
        let (mut p4, digest) = after_round_with_p5(4);
        let at = SimTime::from_secs(2);
        // p5 split: it answers the ping from a lower value.
        let theirs = vec![joined(1, 10), joined(2, 20)];
        let pred = Some((PeerId(4), PeerValue(40)));
        let moved = response_digest(&theirs, EntryState::Joined, PeerValue(48), pred);
        assert_ne!(moved, digest);
        // A ping reply from a peer that is not the target changes nothing.
        let mut fx = Effects::new();
        let c = LayerCtx::new(PeerId(4), at);
        p4.on_ping_reply(c, PeerId(1), 1, true, EntryState::Joined, moved, &mut fx);
        assert_eq!(requests(&fx), []);
        ping_p5(&mut p4, at, moved, &mut fx);
        assert_eq!(requests(&fx), [PeerId(5)]);
        p4.on_stab_response(
            c,
            PeerId(5),
            theirs,
            EntryState::Joined,
            PeerValue(48),
            pred,
            &mut fx,
        );
        assert_eq!(p4.succ_list()[0].value, PeerValue(48));
        // The applied response carried the new digest: the pings that
        // follow are quiet again.
        let mut fx = Effects::new();
        let ping_period = p4.cfg.ping_period();
        for i in 1..=10u32 {
            ping_p5(&mut p4, at + ping_period * i, moved, &mut fx);
        }
        assert_eq!(requests(&fx), []);
    }

    #[test]
    fn a_value_or_list_change_runs_a_round_at_the_next_ping_tick() {
        let (mut p4, digest) = after_round_with_p5(4);
        let at = SimTime::from_secs(2);
        let mut fx = Effects::new();
        ping_p5(&mut p4, at, digest, &mut fx);
        assert_eq!(requests(&fx), []);
        // A split moved this peer's own value: its successor must learn it.
        p4.set_value(PeerValue(38));
        let mut fx = Effects::new();
        p4.on_ping_tick(LayerCtx::new(PeerId(4), at), &mut fx);
        assert_eq!(requests(&fx), [PeerId(5)]);

        // A merge grant moves the value while a round is in flight: the
        // rebuild that follows does not tell p5, so the next tick does.
        let (mut p4, digest) = after_round_with_p5(4);
        let c = LayerCtx::new(PeerId(4), at);
        let mut fx = Effects::new();
        p4.run_stabilization(c, &mut fx);
        p4.set_value(PeerValue(45));
        let theirs = vec![joined(1, 10), joined(2, 20)];
        let pred = Some((PeerId(4), PeerValue(40)));
        p4.on_stab_response(
            c,
            PeerId(5),
            theirs,
            EntryState::Joined,
            PeerValue(50),
            pred,
            &mut fx,
        );
        let mut fx = Effects::new();
        let next = at + p4.cfg.ping_period();
        ping_p5(&mut p4, next, digest, &mut fx);
        assert_eq!(requests(&fx), [PeerId(5)]);

        // p5 stops answering: the ping timeout drops it from the list, and
        // the next ping tick stabilizes with p1 behind it.
        let (mut p4, _) = after_round_with_p5(4);
        let c = LayerCtx::new(PeerId(4), at);
        let mut fx = Effects::new();
        p4.on_ping_tick(c, &mut fx);
        assert_eq!(requests(&fx), []);
        let seq = p4.ping_seq;
        p4.on_ping_timeout(c, PeerId(5), seq);
        let mut fx = Effects::new();
        p4.on_ping_tick(LayerCtx::new(PeerId(4), at + p4.cfg.ping_period()), &mut fx);
        assert_eq!(requests(&fx), [PeerId(1)]);
    }

    #[test]
    fn an_unsettled_peer_stabilizes_once_per_period_with_half_a_ping_of_slack() {
        // p5's predecessor is p3, not p4: p4 is unsettled. Its ping ticks
        // fall half a ping period after its rounds, the case an exact
        // compare would stretch to one and a half periods.
        let (mut p4, digest) = after_round_with_p5(3);
        let cfg = p4.config().clone();
        let start = SimTime::from_secs(2);
        let mut fx = Effects::new();
        p4.on_stabilize_tick(LayerCtx::new(PeerId(4), start), &mut fx);
        let mut rounds = vec![start];
        let mut at = start + cfg.ping_period() / 2;
        for _ in 0..20 {
            let mut fx = Effects::new();
            ping_p5(&mut p4, at, digest, &mut fx);
            if !requests(&fx).is_empty() {
                rounds.push(at);
            }
            at += cfg.ping_period();
        }
        let gaps: Vec<_> = rounds
            .windows(2)
            .map(|w| w[1].duration_since(w[0]))
            .collect();
        assert_eq!(gaps.len(), 10);
        assert!(
            gaps[1..].iter().all(|&g| g == cfg.stabilization_period),
            "{gaps:?}"
        );
        assert_eq!(gaps[0], cfg.stabilization_period - cfg.ping_period() / 2);
    }

    #[test]
    fn a_responders_stale_predecessor_that_is_our_own_is_not_relearned() {
        // p9 split at value 60: it inserted p4 there and moved down to 30,
        // so it is p4's predecessor. p5 still names p9 at 60, which lies
        // between p4 (now 55 after its own split) and p5.
        let mut p4 = member(4, 55, 2, vec![joined(5, 65), joined(1, 10)]);
        p4.pred = Some((PeerId(9), PeerValue(30)));
        let mut fx = Effects::new();
        p4.on_stab_response(
            ctx(4),
            PeerId(5),
            vec![joined(1, 10), joined(2, 20)],
            EntryState::Joined,
            PeerValue(65),
            Some((PeerId(9), PeerValue(60))),
            &mut fx,
        );
        let peers: Vec<PeerId> = p4.succ_list().iter().map(|e| e.peer).collect();
        assert_eq!(peers, vec![PeerId(5), PeerId(1)]);
        // Another peer named there is a successor p4 lost track of.
        let mut p4 = member(4, 55, 2, vec![joined(5, 65), joined(1, 10)]);
        p4.pred = Some((PeerId(9), PeerValue(30)));
        p4.on_stab_response(
            ctx(4),
            PeerId(5),
            vec![joined(1, 10), joined(2, 20)],
            EntryState::Joined,
            PeerValue(65),
            Some((PeerId(7), PeerValue(60))),
            &mut fx,
        );
        assert_eq!(p4.succ_list()[0].peer, PeerId(7));
    }

    /// p4 at 55, whose successor p5 at 65 names p7 at 60 as its
    /// predecessor: p4 re-learns p7 and then stabilizes with it.
    fn repaired_p7() -> RingState {
        let mut p4 = member(4, 55, 2, vec![joined(5, 65), joined(1, 10)]);
        p4.pred = Some((PeerId(9), PeerValue(30)));
        p4.on_stab_response(
            ctx(4),
            PeerId(5),
            vec![joined(1, 10), joined(2, 20)],
            EntryState::Joined,
            PeerValue(65),
            Some((PeerId(7), PeerValue(60))),
            &mut Effects::new(),
        );
        assert_eq!(p4.succ_list()[0].peer, PeerId(7));
        p4.drain_events();
        p4
    }

    fn p7_answers(p4: &mut RingState, value: u64) {
        p4.on_stab_response(
            ctx(4),
            PeerId(7),
            vec![joined(3, 95), joined(8, 99)],
            EntryState::Joined,
            PeerValue(value),
            Some((PeerId(4), PeerValue(55))),
            &mut Effects::new(),
        );
    }

    #[test]
    fn a_repaired_successor_answering_from_outside_its_gap_is_dropped() {
        // p7 left and was recycled by a split at 97 before p4's round with
        // it: its list is another part of the ring, and adopting it would
        // cut p5 out of p4's list.
        let mut p4 = repaired_p7();
        p7_answers(&mut p4, 97);
        let peers: Vec<PeerId> = p4.succ_list().iter().map(|e| e.peer).collect();
        assert_eq!(peers, vec![PeerId(5)]);
        assert!(p4
            .drain_events()
            .contains(&RingEvent::SuccessorDeparted { peer: PeerId(7) }));
        // Only the first answer is checked: once accepted, the peer is an
        // ordinary successor.
        for (value, next) in [(62, 97), (65, 97), (55, 97)] {
            let mut p4 = repaired_p7();
            p7_answers(&mut p4, value);
            assert_eq!(p4.succ_list()[0].peer, PeerId(7), "answer at {value}");
            p7_answers(&mut p4, next);
            assert_eq!(p4.succ_list()[0].peer, PeerId(7), "then at {next}");
        }
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
