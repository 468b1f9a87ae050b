//! The hierarchical shortcut router.
//!
//! A routed request hops straight to its target's owner when the leading
//! run of `JOINED` entries of the ring's successor list names it; otherwise
//! it takes the farthest hop that does not overshoot the target, chosen
//! from the list's `JOINED` entries and this table's shortcuts
//! ([`HierarchicalRouter::next_hop`]). The list is the structure the ring
//! keeps right; the shortcuts only save hops, so the slots the list would
//! hold are copied from it rather than probed, and every other slot is
//! probed less and less often while its answers hold (up to 16 maintenance
//! periods).

use std::time::Duration;

use pepper_net::{Effects, LayerCtx, ProtocolLayer, SimTime};
use pepper_types::range::{in_half_open, in_open};
use pepper_types::{PeerId, PeerValue, SystemConfig};

use crate::messages::RouterMsg;

/// A slot's refresh period doubles while its replies keep it filled (or
/// keep it empty), up to this many maintenance periods.
const MAX_BACKOFF: u32 = 16;

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
/// The near slots `1 ≤ i ≤ log2(d)` (`d` the successor-list length) are
/// the `2^i`-th `JOINED` successors, copied in by
/// [`HierarchicalRouter::follow_ring`] and never probed. Routing reads the
/// list itself; the near slots are kept because the slot above them is
/// probed through them and other peers' probes ask for them. A list too
/// short to fill a near slot leaves its last entry in place.
///
/// Every far slot `i > log2(d)` is refreshed on its own schedule: a
/// maintenance tick probes only the slots that are due. A reply that leaves
/// the slot filled, or leaves it empty, doubles its period (up to
/// `MAX_BACKOFF` = 16 maintenance periods); filling or emptying a slot
/// resets it and the slot above it — whose probe target it is — to the base
/// period, and so do a level-0 change, a near slot the ring moved, and
/// [`HierarchicalRouter::forget_peer`]. Shortcuts only buy speed, so a slot
/// that goes stale between probes costs a hop, which the composed peer
/// notices and repairs when it routes through it.
#[derive(Debug, Clone)]
pub struct HierarchicalRouter {
    id: PeerId,
    cfg: SystemConfig,
    /// `entries[0]` is the ring successor; `entries[i]` points roughly
    /// `2^i` peers ahead.
    entries: [Option<(PeerId, PeerValue)>; ROUTER_LEVELS],
    /// Per slot: its refresh period, in maintenance periods, and when it is
    /// next due (slot 0 comes from the ring and is never probed).
    refresh: [(u32, SimTime); ROUTER_LEVELS],
    /// The highest slot the successor list feeds: `log2(d)`.
    near: usize,
}

impl HierarchicalRouter {
    /// Creates a router for peer `id`.
    pub fn new(id: PeerId, cfg: SystemConfig) -> Self {
        let d = cfg.succ_list_len.max(1);
        let near = (d.ilog2() as usize).min(ROUTER_LEVELS - 1);
        HierarchicalRouter {
            id,
            cfg,
            entries: [None; ROUTER_LEVELS],
            refresh: [(1, SimTime::ZERO); ROUTER_LEVELS],
            near,
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

    /// Copies the near slots from the ring's `JOINED` successors, in list
    /// order (called by the composed peer after each batch of ring
    /// handling): slot `i` takes the `2^i`-th one that is not this peer. A
    /// slot whose entry moved resets the slot above it, its probe target.
    pub fn follow_ring(&mut self, joined: impl IntoIterator<Item = (PeerId, PeerValue)>) {
        let id = self.id;
        let mut joined = joined.into_iter().filter(|(p, _)| *p != id);
        let mut passed = 0;
        for slot in 1..=self.near {
            let rank = 1 << slot;
            let entry = joined.nth(rank - passed - 1);
            passed = rank;
            if entry.is_some() && self.entries[slot] != entry {
                self.entries[slot] = entry;
                self.reset(slot);
            }
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

    /// One maintenance round: every due far slot `i` is refreshed by asking
    /// the level `i-1` target for *its* level `i-1` shortcut (doubling the
    /// distance).
    fn run_maintenance(&mut self, now: SimTime, fx: &mut Effects<RouterMsg>) {
        for slot in self.near + 1..self.entries.len() {
            let (periods, due) = &mut self.refresh[slot];
            match self.entries[slot - 1] {
                Some((peer, _)) if peer != self.id && now >= *due => {
                    *due = now + self.cfg.stabilization_period * *periods;
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
            *due += self.cfg.stabilization_period * (grown - *periods);
            *periods = grown;
        }
    }

    /// Chooses the next hop towards the peer responsible for `target`.
    ///
    /// `list` is the ring's successor list in order, with `None` for an
    /// entry that is `JOINING` or `LEAVING`. When the list names the owner,
    /// the hop goes straight to it: walking the leading run of `JOINED`
    /// entries from this peer's own value, the owner is the first entry `e`
    /// with `prev < target ≤ e` on the circle, `prev` being the entry (or
    /// own value) before it. Equal consecutive values (a split in progress)
    /// own nothing. The walk stops at the first entry that is not `JOINED`.
    ///
    /// Otherwise, or when the owner is this peer or in `skip`, the hop is
    /// the farthest candidate strictly between this peer's value and the
    /// target (so it never overshoots), falling back to the successor. The
    /// candidates are this table's shortcuts and the list's `JOINED`
    /// entries; a peer in `skip` is never chosen. The receiver checks its
    /// own range either way, so a stale list costs a hop, not a wrong
    /// delivery.
    ///
    /// Returns `None` when no other peer qualifies.
    pub fn next_hop<L>(
        &self,
        self_value: PeerValue,
        target: PeerValue,
        list: L,
        skip: &[PeerId],
    ) -> Option<(PeerId, PeerValue)>
    where
        L: IntoIterator<Item = Option<(PeerId, PeerValue)>>,
        L::IntoIter: Clone,
    {
        let usable = |(p, _): &(PeerId, PeerValue)| *p != self.id && !skip.contains(p);
        let list = list.into_iter();
        let mut prev = self_value.raw();
        for (peer, value) in list.clone().map_while(|e| e) {
            let v = value.raw();
            if prev != v && in_half_open(prev, target.raw(), v) {
                if usable(&(peer, value)) {
                    return Some((peer, value));
                }
                break;
            }
            prev = v;
        }
        let shortcuts = self.entries.iter().flatten().copied();
        let mut best: Option<(PeerId, PeerValue)> = None;
        for (peer, value) in shortcuts.chain(list.flatten()).filter(usable) {
            if in_open(self_value.raw(), value.raw(), target.raw()) {
                match best {
                    Some((_, best_value))
                        if !in_open(best_value.raw(), value.raw(), target.raw()) => {}
                    _ => best = Some((peer, value)),
                }
            }
        }
        best.or_else(|| self.entries[0].filter(usable))
    }
}

impl ProtocolLayer for HierarchicalRouter {
    type Msg = RouterMsg;
    type Event = RouterEvent;

    /// Schedules the periodic maintenance timer.
    fn start_timers(&mut self, _ctx: LayerCtx, fx: &mut Effects<RouterMsg>) {
        let stagger = Duration::from_micros((self.id.raw() % 83) * 400);
        fx.timer(
            self.cfg.stabilization_period / 2 + stagger,
            RouterMsg::MaintainTick,
        );
    }

    /// Handles a router message.
    fn handle(&mut self, ctx: LayerCtx, from: PeerId, msg: RouterMsg, fx: &mut Effects<RouterMsg>) {
        match msg {
            RouterMsg::MaintainTick => {
                fx.timer(self.cfg.stabilization_period, RouterMsg::MaintainTick);
                self.run_maintenance(ctx.now, fx);
            }
            RouterMsg::GetEntry { level, slot } => {
                let entry = self.entries.get(level).copied().flatten();
                fx.send(from, RouterMsg::EntryReply { slot, entry });
            }
            RouterMsg::EntryReply { slot, entry } => {
                if slot > self.near && slot < self.entries.len() {
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

    /// A router at `d` = 1, whose every slot from 1 up is probed, holding
    /// `entries` from slot 0 up.
    fn router_with(id: u64, entries: &[(u64, u64)]) -> HierarchicalRouter {
        let cfg = SystemConfig::fast().with_succ_list_len(1);
        fill(HierarchicalRouter::new(PeerId(id), cfg), entries)
    }

    /// A router at `d` = 4, whose slots 1 and 2 the successor list feeds.
    fn ring_fed(entries: &[(u64, u64)]) -> HierarchicalRouter {
        fill(
            HierarchicalRouter::new(PeerId(0), SystemConfig::fast()),
            entries,
        )
    }

    fn fill(mut r: HierarchicalRouter, entries: &[(u64, u64)]) -> HierarchicalRouter {
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
            r.next_hop(PeerValue(0), PeerValue(50), [], &[]),
            Some((PeerId(4), PeerValue(40)))
        );
        // Routing to 15: best is value 10.
        assert_eq!(
            r.next_hop(PeerValue(0), PeerValue(15), [], &[]),
            Some((PeerId(1), PeerValue(10)))
        );
        // Routing to 5: nothing lies strictly between 0 and 5, fall back to
        // the successor.
        assert_eq!(
            r.next_hop(PeerValue(0), PeerValue(5), [], &[]),
            Some((PeerId(1), PeerValue(10)))
        );
    }

    #[test]
    fn the_farthest_list_entry_beats_a_nearer_router_slot() {
        let r = router_with(0, &[(1, 10), (2, 20)]);
        let list = listed(4);
        // Routing to 45: the 4th successor (value 40) beats slot 1 (20).
        assert_eq!(
            r.next_hop(PeerValue(0), PeerValue(45), list.clone(), &[]),
            Some((PeerId(4), PeerValue(40)))
        );
        // A list entry past the target is not a candidate unless it owns
        // the target: with the owner skipped, the hop stops short of it.
        assert_eq!(
            r.next_hop(PeerValue(0), PeerValue(25), list, &[PeerId(3)]),
            Some((PeerId(2), PeerValue(20)))
        );
    }

    #[test]
    fn a_farther_router_slot_beats_the_list() {
        let r = router_with(0, &[(1, 10), (2, 20), (4, 40), (8, 80)]);
        assert_eq!(
            r.next_hop(PeerValue(0), PeerValue(95), listed(4), &[]),
            Some((PeerId(8), PeerValue(80)))
        );
    }

    #[test]
    fn a_skipped_peer_is_never_chosen() {
        let r = router_with(0, &[(1, 10), (8, 80)]);
        // The list's farthest entry is skipped: the next one is taken.
        assert_eq!(
            r.next_hop(PeerValue(0), PeerValue(45), listed(4), &[PeerId(4)]),
            Some((PeerId(3), PeerValue(30)))
        );
        // Skipping a router slot leaves the list.
        assert_eq!(
            r.next_hop(PeerValue(0), PeerValue(95), listed(4), &[PeerId(8)]),
            Some((PeerId(4), PeerValue(40)))
        );
        // A skipped successor is no fallback either.
        assert_eq!(
            r.next_hop(PeerValue(0), PeerValue(5), [], &[PeerId(1)]),
            None
        );
    }

    #[test]
    fn next_hop_handles_wraparound_targets() {
        // Peer at value 80 routing to 10 (wrapping past 0): shortcut at 95 is
        // usable, shortcut at 90 is closer to self than 95.
        let r = router_with(0, &[(1, 90), (2, 95)]);
        assert_eq!(
            r.next_hop(PeerValue(80), PeerValue(10), [], &[]),
            Some((PeerId(2), PeerValue(95)))
        );
    }

    #[test]
    fn next_hop_with_no_entries_is_none() {
        let r = HierarchicalRouter::new(PeerId(0), SystemConfig::fast());
        assert_eq!(r.next_hop(PeerValue(0), PeerValue(50), [], &[]), None);
        // A router that only knows itself also returns None.
        let r = router_with(0, &[(0, 10)]);
        assert_eq!(r.next_hop(PeerValue(0), PeerValue(50), [], &[]), None);
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
            let at = SimTime::ZERO + r.cfg.stabilization_period * tick as u32;
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
        let probed = drive(&mut r, 0..40, |slot| {
            (slot == 1).then_some((PeerId(2), PeerValue(20)))
        });
        let ticks = |slot| -> Vec<u64> {
            probed
                .iter()
                .filter(|(_, s)| *s == slot)
                .map(|(t, _)| *t)
                .collect()
        };
        // Periods 1, 2, 4, 8, then 16 maintenance periods from there on.
        assert_eq!(ticks(1), vec![0, 2, 6, 14, 30]);
        assert_eq!(ticks(2), vec![0, 2, 6, 14, 30]);
        assert!(ticks(3).is_empty());
        assert_eq!(r.refresh[1].0, MAX_BACKOFF);
        assert_eq!(r.refresh[2].0, MAX_BACKOFF);
    }

    fn backed_off(entries: &[(u64, u64)]) -> HierarchicalRouter {
        let mut r = router_with(0, entries);
        r.refresh = [(MAX_BACKOFF, SimTime::from_secs(9)); ROUTER_LEVELS];
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
        let before = r.refresh;
        r.forget_peer(PeerId(9));
        assert_eq!(r.refresh, before);
        assert!(r.refresh[4..].iter().all(|p| *p == HELD));
    }

    /// `n` `JOINED` successors: peer `i` at value `10 i`.
    fn successors(n: u64) -> Vec<(PeerId, PeerValue)> {
        (1..=n).map(|i| (PeerId(i), PeerValue(i * 10))).collect()
    }

    /// [`successors`] as the successor list `next_hop` reads.
    fn listed(n: u64) -> Vec<Option<(PeerId, PeerValue)>> {
        successors(n).into_iter().map(Some).collect()
    }

    /// The hop from peer 0 at value 0, whose slot 0 is its successor p1 at
    /// 10, towards `target` through `list`.
    fn hop(list: &[Option<(u64, u64)>], target: u64, skip: &[PeerId]) -> Option<(u64, u64)> {
        let r = router_with(0, &[(1, 10)]);
        let list = list
            .iter()
            .map(|e| e.map(|(p, v)| (PeerId(p), PeerValue(v))));
        let hop = r.next_hop(PeerValue(0), PeerValue(target), list, skip);
        hop.map(|(p, v)| (p.raw(), v.raw()))
    }

    const A: Option<(u64, u64)> = Some((1, 10));
    const B: Option<(u64, u64)> = Some((2, 20));
    const C: Option<(u64, u64)> = Some((3, 30));

    #[test]
    fn a_target_a_listed_successor_owns_goes_straight_to_it() {
        // (a, b] is b's, (b, c] is c's: no hop stops at the peer before.
        assert_eq!(hop(&[A, B, C], 15, &[]), B);
        assert_eq!(hop(&[A, B, C], 20, &[]), B);
        assert_eq!(hop(&[A, B, C], 21, &[]), C);
        // (self, a] is a's, as before.
        assert_eq!(hop(&[A, B, C], 5, &[]), A);
        assert_eq!(hop(&[A, B, C], 10, &[]), A);
        // Past the list's last entry, the farthest entry that does not
        // overshoot.
        assert_eq!(hop(&[A, B, C], 45, &[]), C);
    }

    #[test]
    fn a_joining_or_leaving_entry_ends_the_owner_walk() {
        // The walk reaches b, then stops: c's interval is not read past the
        // entry in between, and the hop stops short of the target.
        assert_eq!(hop(&[A, B, None, C], 15, &[]), B);
        assert_eq!(hop(&[A, B, None, C], 25, &[]), B);
        assert_eq!(hop(&[A, None, B, C], 25, &[]), B);
        assert_eq!(hop(&[None, A, B, C], 15, &[]), A);
    }

    #[test]
    fn equal_consecutive_values_own_nothing() {
        // b and b' share 20 while a split is in progress: (20, 20] is empty,
        // not the full circle.
        let b2 = Some((4, 20));
        assert_eq!(hop(&[A, B, b2, C], 25, &[]), C);
        assert_eq!(hop(&[A, B, b2, C], 15, &[]), B);
        assert_eq!(hop(&[A, B, b2], 25, &[]), B);
    }

    #[test]
    fn a_skipped_owner_falls_back_to_the_farthest_hop_short_of_the_target() {
        assert_eq!(hop(&[A, B, C], 25, &[]), C);
        assert_eq!(hop(&[A, B, C], 25, &[PeerId(3)]), B);
        assert_eq!(hop(&[A, B, C], 15, &[PeerId(2)]), A);
        // An owner that is this peer itself is no hop either.
        let me = Some((0, 0));
        assert_eq!(hop(&[A, me], 95, &[]), A);
    }

    /// The slots one maintenance tick at `at` probes.
    fn probed_at(r: &mut HierarchicalRouter, at: SimTime) -> Vec<usize> {
        let mut fx = Effects::new();
        r.handle(
            LayerCtx::new(r.id, at),
            r.id,
            RouterMsg::MaintainTick,
            &mut fx,
        );
        let probed = fx.drain().into_iter().filter_map(|e| match e {
            Effect::Send {
                msg: RouterMsg::GetEntry { slot, .. },
                ..
            } => Some(slot),
            _ => None,
        });
        probed.collect()
    }

    #[test]
    fn the_near_slots_are_the_rings_second_and_fourth_successors_and_are_never_probed() {
        // d = 4: slots 1 and 2 come from the list; this peer's own entry in
        // it is skipped.
        let mut r = ring_fed(&[(1, 10)]);
        let mut list = successors(5);
        list.insert(2, (PeerId(0), PeerValue(0)));
        r.follow_ring(list);
        let near = &r.entries()[1..3];
        assert_eq!(
            near,
            [
                Some((PeerId(2), PeerValue(20))),
                Some((PeerId(4), PeerValue(40)))
            ]
        );
        // Only slot 3 is probed, through slot 2's target.
        let mut fx = Effects::new();
        r.handle(ctx(0), PeerId(0), RouterMsg::MaintainTick, &mut fx);
        let probes: Vec<_> = fx
            .drain()
            .into_iter()
            .filter_map(|e| match e {
                Effect::Send {
                    to,
                    msg: RouterMsg::GetEntry { level, slot },
                } => Some((to, level, slot)),
                _ => None,
            })
            .collect();
        assert_eq!(probes, [(PeerId(4), 2, 3)]);
        // Nor does any later tick probe them.
        for tick in 1..20 {
            let at = SimTime::ZERO + r.cfg.stabilization_period * tick;
            assert!(probed_at(&mut r, at).iter().all(|s| *s > 2));
        }
    }

    #[test]
    fn a_reply_for_a_ring_fed_slot_is_ignored() {
        let mut r = ring_fed(&[(1, 10)]);
        r.follow_ring(successors(4));
        let reply = RouterMsg::EntryReply {
            slot: 1,
            entry: Some((PeerId(9), PeerValue(90))),
        };
        r.handle(ctx(0), PeerId(1), reply, &mut Effects::new());
        assert_eq!(r.entries()[1], Some((PeerId(2), PeerValue(20))));
        let emptied = RouterMsg::EntryReply {
            slot: 1,
            entry: None,
        };
        r.handle(ctx(0), PeerId(1), emptied, &mut Effects::new());
        assert_eq!(r.entries()[1], Some((PeerId(2), PeerValue(20))));
    }

    #[test]
    fn a_list_too_short_leaves_the_near_slot_in_place_and_unprobed() {
        let mut r = ring_fed(&[(1, 10)]);
        r.refresh = [HELD; ROUTER_LEVELS];
        r.follow_ring(successors(4));
        assert_eq!(&r.refresh[1..5], &[BASE, BASE, BASE, HELD]);
        let later = SimTime::from_secs(60);
        assert_eq!(probed_at(&mut r, later), [3]);
        // Three JOINED successors name the 2nd but no 4th: slot 2 keeps the
        // 4th it had, and neither a tick nor a reply touches it.
        r.follow_ring(successors(3));
        assert_eq!(r.entries()[2], Some((PeerId(4), PeerValue(40))));
        assert_eq!(probed_at(&mut r, SimTime::from_secs(61)), [3]);
        let reply = RouterMsg::EntryReply {
            slot: 2,
            entry: Some((PeerId(5), PeerValue(50))),
        };
        r.handle(ctx(0), PeerId(2), reply, &mut Effects::new());
        assert_eq!(r.entries()[2], Some((PeerId(4), PeerValue(40))));
    }

    #[test]
    fn a_near_slot_the_ring_moved_resets_the_slot_above_it() {
        let mut r = ring_fed(&[(1, 10)]);
        r.follow_ring(successors(4));
        r.refresh = [HELD; ROUTER_LEVELS];
        // The same list again changes nothing.
        r.follow_ring(successors(4));
        assert!(r.refresh.iter().all(|p| *p == HELD));
        // The 4th successor at a new value moves slot 2: slot 3 is due.
        let mut list = successors(4);
        list[3].1 = PeerValue(45);
        r.follow_ring(list);
        assert_eq!(&r.refresh[1..5], &[HELD, BASE, BASE, HELD]);
        // Clearing the table empties the near slots, and they stay
        // unprobed: knowing only the successor, a tick asks nobody.
        r.clear();
        r.set_successor(PeerId(1), PeerValue(10));
        assert_eq!(probed_at(&mut r, SimTime::ZERO), Vec::<usize>::new());
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
}
