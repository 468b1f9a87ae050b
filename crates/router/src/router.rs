//! The hierarchical shortcut router.

use std::time::Duration;

use pepper_net::{Effects, LayerCtx, ProtocolLayer, SimTime};
use pepper_types::range::in_open;
use pepper_types::{PeerId, PeerValue, SystemConfig};

use crate::messages::RouterMsg;

/// A slot's refresh period doubles while its replies keep it filled (or
/// keep it empty), up to this many maintenance periods.
const MAX_BACKOFF: u32 = 4;

/// Number of shortcut levels maintained (level `i` points roughly `2^i`
/// peers ahead).
const ROUTER_LEVELS: usize = 16;

/// Events reported by the content router.
///
/// The router is a pure cache: it currently has nothing to tell the composed
/// peer, so this enum is uninhabited — it exists so the router satisfies the
/// uniform [`ProtocolLayer`] contract, and documents where future events
/// (e.g. "shortcut table converged") would go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterEvent {}

/// The per-peer content router: a table of shortcuts at exponentially
/// increasing ring distances.
///
/// Each slot `i ≥ 1` is refreshed on its own schedule: a maintenance tick
/// probes only the slots that are due. A reply that leaves the slot filled,
/// or leaves it empty, doubles its period (up to `MAX_BACKOFF` = 4
/// maintenance periods); filling or emptying a slot resets it and the slot
/// above it — whose probe target it is — to the base period, and so do a
/// level-0 change and [`HierarchicalRouter::forget_peer`]. Shortcuts only buy
/// speed, so a slot that goes stale between probes costs a hop, which the
/// composed peer notices and repairs when it routes through it.
#[derive(Debug, Clone)]
pub struct HierarchicalRouter {
    id: PeerId,
    cfg: SystemConfig,
    /// `entries[0]` is the ring successor; `entries[i]` points roughly
    /// `2^i` peers ahead.
    entries: Vec<Option<(PeerId, PeerValue)>>,
    /// Per slot: its refresh period, in maintenance periods, and when it is
    /// next due (slot 0 comes from the ring and is never probed).
    refresh: Vec<(u32, SimTime)>,
    timers_started: bool,
}

impl HierarchicalRouter {
    /// Creates a router for peer `id`.
    pub fn new(id: PeerId, cfg: SystemConfig) -> Self {
        HierarchicalRouter {
            id,
            cfg,
            entries: vec![None; ROUTER_LEVELS],
            refresh: vec![(1, SimTime::ZERO); ROUTER_LEVELS],
            timers_started: false,
        }
    }

    /// The shortcut table (level 0 is the successor).
    pub fn entries(&self) -> &[Option<(PeerId, PeerValue)>] {
        &self.entries
    }

    /// Number of populated shortcut levels.
    pub fn populated_levels(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Installs the ring successor as the level-0 shortcut (called by the
    /// composed peer on ring `NewSuccessor` events).
    pub fn set_successor(&mut self, peer: PeerId, value: PeerValue) {
        if self.entries[0] != Some((peer, value)) {
            self.entries[0] = Some((peer, value));
            self.reset(0);
        }
    }

    /// Drops every shortcut pointing at `peer` (called when the ring reports
    /// the peer as failed or departed, or a hop to it went unanswered).
    pub fn forget_peer(&mut self, peer: PeerId) {
        for slot in 0..self.entries.len() {
            if matches!(self.entries[slot], Some((p, _)) if p == peer) {
                self.entries[slot] = None;
                self.reset(slot);
            }
        }
    }

    /// Moves every shortcut pointing at `peer` to `value` (a hop to it found
    /// the peer at a new ring value).
    pub fn correct(&mut self, peer: PeerId, value: PeerValue) {
        for (p, v) in self.entries.iter_mut().flatten() {
            if *p == peer {
                *v = value;
            }
        }
    }

    /// Clears all shortcuts (used when this peer leaves the ring).
    pub fn clear(&mut self) {
        self.entries.fill(None);
        self.refresh.fill((1, SimTime::ZERO));
    }

    /// Puts `slot` and the slot above it back on the base period, due at the
    /// next maintenance tick.
    fn reset(&mut self, slot: usize) {
        for r in self.refresh.iter_mut().skip(slot).take(2) {
            *r = (1, SimTime::ZERO);
        }
    }

    /// One maintenance round: every due level `i` is refreshed by asking the
    /// level `i-1` target for *its* level `i-1` shortcut (doubling the
    /// distance).
    fn run_maintenance(&mut self, now: SimTime, fx: &mut Effects<RouterMsg>) {
        for slot in 1..self.entries.len() {
            let (periods, due) = &mut self.refresh[slot];
            match self.entries[slot - 1] {
                Some((peer, _)) if peer != self.id && now >= *due => {
                    *due = now + self.cfg.router_refresh_period * *periods;
                    fx.send(
                        peer,
                        RouterMsg::GetEntry {
                            level: slot - 1,
                            slot,
                        },
                    );
                }
                _ => {}
            }
        }
    }

    /// Stores a probe's answer in `slot` and reschedules the slot: back off
    /// while its presence holds, reset when the reply fills or empties it.
    fn store_reply(&mut self, slot: usize, entry: Option<(PeerId, PeerValue)>) {
        // Never learn a shortcut pointing back at ourselves.
        let entry = entry.filter(|(p, _)| *p != self.id);
        let changed = self.entries[slot].is_some() != entry.is_some();
        self.entries[slot] = entry;
        if changed {
            self.reset(slot);
        } else {
            let (periods, due) = &mut self.refresh[slot];
            let grown = (*periods * 2).min(MAX_BACKOFF);
            *due += self.cfg.router_refresh_period * (grown - *periods);
            *periods = grown;
        }
    }

    /// Chooses the next hop towards the peer responsible for `target`:
    /// the farthest shortcut that lies strictly between this peer's value and
    /// the target (so it never overshoots), falling back to the successor.
    ///
    /// Returns `None` when the router knows no other peer.
    pub fn next_hop(
        &self,
        self_value: PeerValue,
        target: PeerValue,
    ) -> Option<(PeerId, PeerValue)> {
        let mut best: Option<(PeerId, PeerValue)> = None;
        for entry in self.entries.iter().flatten() {
            let (peer, value) = *entry;
            if peer == self.id {
                continue;
            }
            if in_open(self_value.raw(), value.raw(), target.raw()) {
                match best {
                    Some((_, best_value))
                        if !in_open(best_value.raw(), value.raw(), target.raw()) => {}
                    _ => best = Some((peer, value)),
                }
            }
        }
        best.or_else(|| self.entries[0].filter(|(p, _)| *p != self.id))
    }
}

impl ProtocolLayer for HierarchicalRouter {
    type Msg = RouterMsg;
    type Event = RouterEvent;

    /// Schedules the periodic maintenance timer. Idempotent.
    fn start_timers(&mut self, _ctx: LayerCtx, fx: &mut Effects<RouterMsg>) {
        if self.timers_started {
            return;
        }
        self.timers_started = true;
        let stagger = Duration::from_micros((self.id.raw() % 83) * 400);
        fx.timer(
            self.cfg.router_refresh_period / 2 + stagger,
            RouterMsg::MaintainTick,
        );
    }

    /// Handles a router message.
    fn handle(&mut self, ctx: LayerCtx, from: PeerId, msg: RouterMsg, fx: &mut Effects<RouterMsg>) {
        match msg {
            RouterMsg::MaintainTick => {
                fx.timer(self.cfg.router_refresh_period, RouterMsg::MaintainTick);
                self.run_maintenance(ctx.now, fx);
            }
            RouterMsg::GetEntry { level, slot } => {
                let entry = self.entries.get(level).copied().flatten();
                fx.send(from, RouterMsg::EntryReply { slot, entry });
            }
            RouterMsg::EntryReply { slot, entry } => {
                if slot > 0 && slot < self.entries.len() {
                    self.store_reply(slot, entry);
                }
            }
        }
    }

    fn drain_events(&mut self) -> Vec<RouterEvent> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepper_net::Effect;

    fn ctx(id: u64) -> LayerCtx {
        LayerCtx::new(PeerId(id), SimTime::from_secs(1))
    }

    fn router_with(id: u64, entries: &[(u64, u64)]) -> HierarchicalRouter {
        let mut r = HierarchicalRouter::new(PeerId(id), SystemConfig::fast());
        for (slot, (peer, value)) in entries.iter().enumerate() {
            r.entries[slot] = Some((PeerId(*peer), PeerValue(*value)));
        }
        r
    }

    #[test]
    fn successor_is_level_zero() {
        let mut r = HierarchicalRouter::new(PeerId(0), SystemConfig::fast());
        assert_eq!(r.populated_levels(), 0);
        r.set_successor(PeerId(1), PeerValue(10));
        assert_eq!(r.entries()[0], Some((PeerId(1), PeerValue(10))));
        assert_eq!(r.populated_levels(), 1);
    }

    #[test]
    fn maintenance_asks_each_level_target() {
        let mut r = router_with(0, &[(1, 10), (2, 20)]);
        let mut fx = Effects::new();
        r.handle(ctx(0), PeerId(0), RouterMsg::MaintainTick, &mut fx);
        let effects = fx.drain();
        // Re-armed timer plus one GetEntry per populated predecessor level.
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Timer {
                msg: RouterMsg::MaintainTick,
                ..
            }
        )));
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: RouterMsg::GetEntry { level: 0, slot: 1 } } if *to == PeerId(1)
        )));
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: RouterMsg::GetEntry { level: 1, slot: 2 } } if *to == PeerId(2)
        )));
    }

    #[test]
    fn get_entry_is_answered_and_reply_is_stored() {
        let mut responder = router_with(2, &[(3, 30)]);
        let mut fx = Effects::new();
        responder.handle(
            ctx(2),
            PeerId(0),
            RouterMsg::GetEntry { level: 0, slot: 1 },
            &mut fx,
        );
        let reply = match fx.drain().remove(0) {
            Effect::Send { to, msg } => {
                assert_eq!(to, PeerId(0));
                msg
            }
            other => panic!("unexpected {other:?}"),
        };
        let mut requester = router_with(0, &[(2, 20)]);
        requester.handle(ctx(0), PeerId(2), reply, &mut fx);
        assert_eq!(requester.entries()[1], Some((PeerId(3), PeerValue(30))));
    }

    #[test]
    fn reply_pointing_at_self_is_ignored() {
        let mut r = router_with(0, &[(2, 20)]);
        let mut fx = Effects::new();
        r.handle(
            ctx(0),
            PeerId(2),
            RouterMsg::EntryReply {
                slot: 1,
                entry: Some((PeerId(0), PeerValue(5))),
            },
            &mut fx,
        );
        assert_eq!(r.entries()[1], None);
        // Slot 0 is never overwritten by replies.
        r.handle(
            ctx(0),
            PeerId(2),
            RouterMsg::EntryReply {
                slot: 0,
                entry: Some((PeerId(9), PeerValue(90))),
            },
            &mut fx,
        );
        assert_eq!(r.entries()[0], Some((PeerId(2), PeerValue(20))));
    }

    #[test]
    fn next_hop_picks_farthest_without_overshooting() {
        // Peer 0 at value 0; shortcuts at values 10, 20, 40, 80.
        let r = router_with(0, &[(1, 10), (2, 20), (4, 40), (8, 80)]);
        // Routing to 50: the best shortcut is value 40 (does not overshoot).
        assert_eq!(
            r.next_hop(PeerValue(0), PeerValue(50)),
            Some((PeerId(4), PeerValue(40)))
        );
        // Routing to 15: best is value 10.
        assert_eq!(
            r.next_hop(PeerValue(0), PeerValue(15)),
            Some((PeerId(1), PeerValue(10)))
        );
        // Routing to 5: nothing lies strictly between 0 and 5, fall back to
        // the successor.
        assert_eq!(
            r.next_hop(PeerValue(0), PeerValue(5)),
            Some((PeerId(1), PeerValue(10)))
        );
    }

    #[test]
    fn next_hop_handles_wraparound_targets() {
        // Peer at value 80 routing to 10 (wrapping past 0): shortcut at 95 is
        // usable, shortcut at 90 is closer to self than 95.
        let r = router_with(0, &[(1, 90), (2, 95)]);
        assert_eq!(
            r.next_hop(PeerValue(80), PeerValue(10)),
            Some((PeerId(2), PeerValue(95)))
        );
    }

    #[test]
    fn next_hop_with_no_entries_is_none() {
        let r = HierarchicalRouter::new(PeerId(0), SystemConfig::fast());
        assert_eq!(r.next_hop(PeerValue(0), PeerValue(50)), None);
        // A router that only knows itself also returns None.
        let r = router_with(0, &[(0, 10)]);
        assert_eq!(r.next_hop(PeerValue(0), PeerValue(50)), None);
    }

    #[test]
    fn forget_and_clear_remove_entries() {
        let mut r = router_with(0, &[(1, 10), (2, 20), (1, 40)]);
        r.forget_peer(PeerId(1));
        assert_eq!(r.entries()[0], None);
        assert_eq!(r.entries()[2], None);
        assert_eq!(r.populated_levels(), 1);
        r.clear();
        assert_eq!(r.populated_levels(), 0);
    }

    /// Runs maintenance ticks `ticks` (one maintenance period apart) and
    /// answers every probe of slot `s` with `answer(s)`; returns the
    /// `(tick, slot)` of every probe.
    fn drive(
        r: &mut HierarchicalRouter,
        ticks: std::ops::Range<u64>,
        answer: impl Fn(usize) -> Option<(PeerId, PeerValue)>,
    ) -> Vec<(u64, usize)> {
        let mut probed = Vec::new();
        for tick in ticks {
            let at = SimTime::ZERO + r.cfg.router_refresh_period * tick as u32;
            let ctx = LayerCtx::new(r.id, at);
            let mut fx = Effects::new();
            r.handle(ctx, r.id, RouterMsg::MaintainTick, &mut fx);
            for e in fx.drain() {
                if let Effect::Send {
                    msg: RouterMsg::GetEntry { slot, .. },
                    ..
                } = e
                {
                    probed.push((tick, slot));
                    let reply = RouterMsg::EntryReply {
                        slot,
                        entry: answer(slot),
                    };
                    r.handle(ctx, PeerId(99), reply, &mut Effects::new());
                }
            }
        }
        probed
    }

    #[test]
    fn a_slots_period_doubles_up_to_the_cap_while_its_presence_holds() {
        // Slot 1 keeps being answered with a shortcut, slot 2 keeps being
        // answered with nothing; slot 3 has no target and is never probed.
        let mut r = router_with(0, &[(1, 10), (2, 20)]);
        let probed = drive(&mut r, 0..15, |slot| {
            (slot == 1).then_some((PeerId(2), PeerValue(20)))
        });
        let ticks = |slot| -> Vec<u64> {
            probed
                .iter()
                .filter(|(_, s)| *s == slot)
                .map(|(t, _)| *t)
                .collect()
        };
        // Periods 1, 2, then 4 maintenance periods from there on.
        assert_eq!(ticks(1), vec![0, 2, 6, 10, 14]);
        assert_eq!(ticks(2), vec![0, 2, 6, 10, 14]);
        assert!(ticks(3).is_empty());
        assert_eq!(r.refresh[1].0, MAX_BACKOFF);
        assert_eq!(r.refresh[2].0, MAX_BACKOFF);
    }

    fn backed_off(entries: &[(u64, u64)]) -> HierarchicalRouter {
        let mut r = router_with(0, entries);
        r.refresh = vec![(MAX_BACKOFF, SimTime::from_secs(9)); r.refresh.len()];
        r
    }

    const BASE: (u32, SimTime) = (1, SimTime::ZERO);
    const HELD: (u32, SimTime) = (MAX_BACKOFF, SimTime::from_secs(9));

    #[test]
    fn filling_or_emptying_a_slot_resets_it_and_the_next_one() {
        let reply = |r: &mut HierarchicalRouter, slot, entry| {
            let msg = RouterMsg::EntryReply { slot, entry };
            r.handle(ctx(0), PeerId(1), msg, &mut Effects::new());
        };
        // Emptying slot 1 puts slots 1 and 2 back on the base period.
        let mut r = backed_off(&[(1, 10), (2, 20), (3, 30)]);
        reply(&mut r, 1, None);
        assert_eq!(r.entries()[1], None);
        assert_eq!(&r.refresh[1..4], &[BASE, BASE, HELD]);
        // Filling slot 2 does the same for slots 2 and 3.
        let mut r = backed_off(&[(1, 10), (2, 20)]);
        reply(&mut r, 2, Some((PeerId(4), PeerValue(40))));
        assert_eq!(&r.refresh[1..5], &[HELD, BASE, BASE, HELD]);
    }

    #[test]
    fn a_level_zero_change_and_forget_peer_reset_the_slot_and_the_next_one() {
        let mut r = backed_off(&[(1, 10), (2, 20), (3, 30)]);
        // The same successor again is no change.
        r.set_successor(PeerId(1), PeerValue(10));
        assert_eq!(&r.refresh[..3], &[HELD, HELD, HELD]);
        // The same successor at a new value is.
        r.set_successor(PeerId(1), PeerValue(12));
        assert_eq!(&r.refresh[..3], &[BASE, BASE, HELD]);
        let mut r = backed_off(&[(1, 10), (2, 20), (3, 30), (4, 40)]);
        r.forget_peer(PeerId(3));
        assert_eq!(r.entries()[2], None);
        assert_eq!(&r.refresh[1..5], &[HELD, BASE, BASE, HELD]);
        // Forgetting a peer the table does not hold changes nothing.
        let before = r.refresh.clone();
        r.forget_peer(PeerId(9));
        assert_eq!(r.refresh, before);
        assert!(r.refresh[4..].iter().all(|p| *p == HELD));
    }

    #[test]
    fn correcting_a_value_keeps_the_peer() {
        let mut r = backed_off(&[(1, 10), (2, 20), (3, 30), (2, 20)]);
        r.correct(PeerId(2), PeerValue(25));
        let two = Some((PeerId(2), PeerValue(25)));
        assert_eq!(
            r.entries()[..4],
            [
                Some((PeerId(1), PeerValue(10))),
                two,
                Some((PeerId(3), PeerValue(30))),
                two
            ]
        );
        // No slot changed presence: every schedule holds.
        assert!(r.refresh.iter().all(|p| *p == HELD));
    }

    #[test]
    fn timers_start_once() {
        let mut r = HierarchicalRouter::new(PeerId(1), SystemConfig::fast());
        let mut fx = Effects::new();
        r.start_timers(ctx(1), &mut fx);
        r.start_timers(ctx(1), &mut fx);
        assert_eq!(fx.len(), 1);
    }
}
