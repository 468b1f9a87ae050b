//! The replication manager state machine.

use std::sync::Arc;
use std::time::Duration;

use pepper_net::{Effects, LayerCtx, ProtocolLayer};
use pepper_types::{CircularRange, Item, PeerId, Protocol, SystemConfig, VecMap};

use crate::events::ReplEvent;
use crate::messages::{Batch, ReplMsg};

/// The per-peer replication manager.
#[derive(Debug, Clone)]
pub struct ReplicationManager {
    id: PeerId,
    cfg: SystemConfig,
    /// Replicas held on behalf of predecessors, keyed by mapped value.
    replica_store: VecMap<u64, Item>,
    /// The last push this peer sent: the items version its batch was built
    /// from (`None`: a one-off batch, or forgotten) and its targets. A
    /// refresh round that would repeat that push sends nothing.
    last_push: Option<u64>,
    pushed_to: Vec<PeerId>,
    /// Events buffered for the composed peer.
    events: Vec<ReplEvent>,
}

impl ReplicationManager {
    /// Creates a replication manager for peer `id`.
    pub fn new(id: PeerId, cfg: SystemConfig) -> Self {
        ReplicationManager {
            id,
            cfg,
            replica_store: VecMap::new(),
            last_push: None,
            pushed_to: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Number of replicas currently held.
    pub fn replica_count(&self) -> usize {
        self.replica_store.len()
    }

    /// All replicas held (mapped value, item).
    pub fn replicas(&self) -> Vec<(u64, Item)> {
        self.replica_entries().to_vec()
    }

    /// All replicas held, as one slice in mapped-value order.
    pub fn replica_entries(&self) -> &[(u64, Item)] {
        self.replica_store.as_slice()
    }

    /// Whether a replica for `mapped` is currently held.
    pub fn holds_replica(&self, mapped: u64) -> bool {
        self.replica_store.contains_key(&mapped)
    }

    /// Pushes this peer's items to its `k` nearest successors (one refresh
    /// round of the CFS scheme). The batch is built here, a one-off: the next
    /// [`Self::refresh`] round pushes again.
    pub fn push_to_successors(
        &mut self,
        _ctx: LayerCtx,
        own_items: &[(u64, Item)],
        successors: &[PeerId],
        fx: &mut Effects<ReplMsg>,
    ) {
        self.push_batch(own_items.into(), None, successors.iter().copied(), fx);
    }

    /// Pushes an already built batch now, never skipped: every one of the
    /// `k` nearest successors is sent the same shared `batch`. A caller
    /// names the batch with the Data Store `items_version` it was built from
    /// (equal versions, same items), which lets [`Self::refresh`] skip a
    /// round that would repeat this push.
    pub fn push_batch(
        &mut self,
        batch: Batch,
        version: Option<u64>,
        successors: impl IntoIterator<Item = PeerId>,
        fx: &mut Effects<ReplMsg>,
    ) {
        if batch.is_empty() {
            return;
        }
        self.pushed_to.clear();
        let targets = successors.into_iter().filter(|p| *p != self.id);
        self.pushed_to
            .extend(targets.take(self.cfg.replication_factor));
        for &target in &self.pushed_to {
            fx.send(
                target,
                ReplMsg::Push {
                    items: Arc::clone(&batch),
                },
            );
        }
        self.last_push = version;
    }

    /// A periodic refresh round: [`Self::push_batch`] of the batch `build`
    /// returns, unless this peer's last push carried the same items
    /// `version` to the same targets. Then every target already holds the
    /// batch, and the round stays quiet, however many rounds in a row;
    /// `build` is called only by a round that pushes.
    ///
    /// A version names one batch only within one incarnation: a restarted
    /// peer is a new manager whose first round always pushes.
    pub fn refresh(
        &mut self,
        version: u64,
        successors: impl Iterator<Item = PeerId> + Clone,
        build: impl FnOnce() -> Batch,
        fx: &mut Effects<ReplMsg>,
    ) {
        let targets = successors.clone().filter(|p| *p != self.id);
        if self.last_push == Some(version)
            && targets
                .take(self.cfg.replication_factor)
                .eq(self.pushed_to.iter().copied())
        {
            return;
        }
        self.push_batch(build(), Some(version), successors, fx);
    }

    /// Forgets the last push if a target of it is listed `JOINING`: it left
    /// the ring, and may have crashed and lost replicas its WAL had not synced.
    pub fn forget_rejoined_targets(&mut self, mut joining: impl Iterator<Item = PeerId>) {
        if joining.any(|peer| self.pushed_to.contains(&peer)) {
            self.last_push = None;
        }
    }

    /// The paper's replicate-to-additional-hop: before this peer gives up its
    /// range in a merge, push everything it stores (its own items and the
    /// replicas it holds) one hop beyond the peers that already hold them.
    ///
    /// Returns `true` if a push was sent (the protection is disabled in the
    /// naive configuration).
    pub fn replicate_additional_hop(
        &mut self,
        _ctx: LayerCtx,
        own_items: &[(u64, Item)],
        successors: &[PeerId],
        fx: &mut Effects<ReplMsg>,
    ) -> bool {
        if self.cfg.protocol == Protocol::Naive {
            return false;
        }
        let held: Batch = self.replica_entries().into();
        let payload: Batch = own_items.iter().chain(held.iter()).cloned().collect();
        if payload.is_empty() {
            return false;
        }
        // The k nearest successors already receive this peer's own items
        // through the periodic refresh; the additional hop is the (k+1)-th
        // successor (or the farthest one known). The replicas held for
        // predecessors also move one hop further this way.
        let candidates: Vec<PeerId> = successors
            .iter()
            .copied()
            .filter(|p| *p != self.id)
            .collect();
        if candidates.is_empty() {
            return false;
        }
        // A one-off push: the next refresh round is not quiet.
        self.last_push = None;
        let target = candidates
            .get(self.cfg.replication_factor)
            .copied()
            .unwrap_or_else(|| *candidates.last().expect("non-empty"));
        fx.send(target, ReplMsg::Push { items: payload });
        // Also hand the replicas we hold to our immediate successor so the
        // items of our predecessors keep k copies after we are gone.
        if let Some(first) = candidates.first().copied() {
            if first != target && !held.is_empty() {
                fx.send(first, ReplMsg::Push { items: held });
            }
        }
        true
    }

    /// Returns (and removes from the replica store) the replicas that fall
    /// in `acquired`, to be revived into the Data Store after this peer took
    /// over a failed predecessor's range.
    pub fn take_replicas_in(&mut self, acquired: &CircularRange) -> Vec<(u64, Item)> {
        self.replica_store.take_runs(acquired)
    }

    /// Installs replicas recovered from durable storage after a restart (no
    /// event is emitted: the records are already journaled).
    pub fn install_replicas(&mut self, items: Vec<(u64, Item)>) {
        self.replica_store.extend(items);
    }

    /// Drops the replicas inside this peer's own range: it owns them now,
    /// and they live in its Data Store. Called on every range change, it
    /// keeps the store from growing without bound. Only this and
    /// [`Self::take_replicas_in`] empty the store: a peer that becomes free
    /// keeps its replicas, since only the composed peer's construction
    /// builds a manager.
    pub fn prune_owned(&mut self, own_range: &CircularRange) {
        self.replica_store.remove_runs(own_range);
    }
}

impl ProtocolLayer for ReplicationManager {
    type Msg = ReplMsg;
    type Event = ReplEvent;

    /// Schedules the periodic refresh timer.
    fn start_timers(&mut self, _ctx: LayerCtx, fx: &mut Effects<ReplMsg>) {
        let stagger = Duration::from_micros((self.id.raw() % 89) * 300);
        fx.timer(
            self.cfg.stabilization_period / 2 + stagger,
            ReplMsg::RefreshTick,
        );
    }

    /// Handles a replication message. The refresh round itself is performed
    /// by the composed peer in response to [`ReplEvent::RefreshDue`], because
    /// it needs the Data Store's items and the ring's successor list. A push
    /// is read in full: what it holds that the replica store does not is
    /// installed and reported as [`ReplEvent::ReplicasInstalled`].
    fn handle(&mut self, _ctx: LayerCtx, from: PeerId, msg: ReplMsg, fx: &mut Effects<ReplMsg>) {
        match msg {
            ReplMsg::RefreshTick => {
                fx.timer(self.cfg.stabilization_period, ReplMsg::RefreshTick);
                self.events.push(ReplEvent::RefreshDue);
            }
            ReplMsg::Push { items } => {
                let mut delta = Vec::new();
                for (mapped, item) in items.iter() {
                    if self.replica_store.get(mapped) != Some(item) {
                        delta.push((*mapped, item.clone()));
                        self.replica_store.insert(*mapped, item.clone());
                    }
                }
                if !delta.is_empty() {
                    self.events
                        .push(ReplEvent::ReplicasInstalled { items: delta });
                }
            }
            ReplMsg::RecoverRequest { range } => {
                // Answer with copies: the requester owns the range now, so
                // the copies this peer keeps remain valid replicas.
                let runs = self.replica_store.runs(&range);
                let items: Vec<(u64, Item)> = runs.into_iter().flatten().cloned().collect();
                if !items.is_empty() {
                    fx.send(from, ReplMsg::RecoverReply { items });
                }
            }
            ReplMsg::RecoverReply { items } => {
                self.events.push(ReplEvent::Recovered { items });
            }
        }
    }

    fn drain_events(&mut self) -> Vec<ReplEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepper_net::{Effect, SimTime};
    use pepper_types::SearchKey;

    /// Drives one message through the layer the way the composed peer does:
    /// handle, then serve a `RefreshDue` event with the given snapshot.
    fn handle_with_snapshot(
        rm: &mut ReplicationManager,
        ctx: LayerCtx,
        from: PeerId,
        msg: ReplMsg,
        own_items: &[(u64, Item)],
        successors: &[PeerId],
        fx: &mut Effects<ReplMsg>,
    ) -> bool {
        ProtocolLayer::handle(rm, ctx, from, msg, fx);
        let mut refreshed = false;
        for event in rm.drain_events() {
            match event {
                ReplEvent::RefreshDue => {
                    refreshed = true;
                    rm.push_to_successors(ctx, own_items, successors, fx);
                }
                ReplEvent::Recovered { .. } | ReplEvent::ReplicasInstalled { .. } => {}
            }
        }
        refreshed
    }

    fn ctx(id: u64) -> LayerCtx {
        LayerCtx::new(PeerId(id), SimTime::from_secs(1))
    }

    fn item(k: u64) -> (u64, Item) {
        (k, Item::for_key(SearchKey(k)))
    }

    #[test]
    fn refresh_pushes_to_k_successors() {
        let mut rm = ReplicationManager::new(PeerId(0), SystemConfig::fast());
        let mut fx = Effects::new();
        let own = vec![item(10), item(20)];
        let succs = vec![PeerId(1), PeerId(2), PeerId(3)];
        let refreshed = handle_with_snapshot(
            &mut rm,
            ctx(0),
            PeerId(0),
            ReplMsg::RefreshTick,
            &own,
            &succs,
            &mut fx,
        );
        assert!(refreshed);
        let effects = fx.drain();
        // Timer re-arm + pushes to exactly k = 2 successors.
        let pushes: Vec<_> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send {
                    to,
                    msg: ReplMsg::Push { items, .. },
                } => Some((*to, items)),
                _ => None,
            })
            .collect();
        let targets: Vec<PeerId> = pushes.iter().map(|(to, _)| *to).collect();
        assert_eq!(targets, vec![PeerId(1), PeerId(2)]);
        // Every target of the round gets this peer's items — one batch,
        // built once and shared.
        for (to, items) in &pushes {
            assert_eq!(&items[..], &own[..], "batch for {to}");
            assert!(Arc::ptr_eq(items, pushes[0].1), "batch for {to} is shared");
        }
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Timer {
                msg: ReplMsg::RefreshTick,
                ..
            }
        )));
    }

    #[test]
    fn refresh_with_no_items_sends_nothing() {
        let mut rm = ReplicationManager::new(PeerId(0), SystemConfig::fast());
        let mut fx = Effects::new();
        rm.push_to_successors(ctx(0), &[], &[PeerId(1)], &mut fx);
        assert!(fx.is_empty());
    }

    #[test]
    fn push_is_stored_in_replica_store() {
        let mut rm = ReplicationManager::new(PeerId(1), SystemConfig::fast());
        let mut fx = Effects::new();
        let refreshed = handle_with_snapshot(
            &mut rm,
            ctx(1),
            PeerId(0),
            ReplMsg::Push {
                items: vec![item(10), item(20)].into(),
            },
            &[],
            &[],
            &mut fx,
        );
        assert!(!refreshed);
        assert_eq!(rm.replica_count(), 2);
        assert!(rm.holds_replica(10) && rm.holds_replica(20));
        assert!(!rm.holds_replica(30));
        assert!(fx.is_empty());
    }

    #[test]
    fn revival_takes_only_acquired_range() {
        let mut rm = ReplicationManager::new(PeerId(1), SystemConfig::fast());
        let mut fx = Effects::new();
        handle_with_snapshot(
            &mut rm,
            ctx(1),
            PeerId(0),
            ReplMsg::Push {
                items: vec![item(10), item(20), item(30)].into(),
            },
            &[],
            &[],
            &mut fx,
        );
        let revived = rm.take_replicas_in(&CircularRange::new(5u64, 20u64));
        let keys: Vec<u64> = revived.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![10, 20]);
        // Taken replicas are removed; the rest stays.
        assert_eq!(rm.replicas(), vec![item(30)]);
    }

    #[test]
    fn extra_hop_targets_the_k_plus_first_successor() {
        let mut rm = ReplicationManager::new(PeerId(0), SystemConfig::fast());
        let mut fx = Effects::new();
        // Pre-existing replicas held for predecessors.
        handle_with_snapshot(
            &mut rm,
            ctx(0),
            PeerId(9),
            ReplMsg::Push {
                items: vec![item(5)].into(),
            },
            &[],
            &[],
            &mut fx,
        );
        let own = vec![item(10)];
        let succs = vec![PeerId(1), PeerId(2), PeerId(3), PeerId(4)];
        assert!(rm.replicate_additional_hop(ctx(0), &own, &succs, &mut fx));
        let effects = fx.drain();
        // The main extra-hop push — own items, then the held replicas — goes
        // to the (k+1)-th successor (index 2).
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: ReplMsg::Push { items } }
                if *to == PeerId(3) && items[..] == [item(10), item(5)]
        )));
        // The held replicas also move to the immediate successor.
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: ReplMsg::Push { items } }
                if *to == PeerId(1) && items[..] == [item(5)]
        )));
        assert_eq!(effects.len(), 2);
    }

    #[test]
    fn extra_hop_disabled_in_naive_mode() {
        let cfg = SystemConfig::fast().with_protocol(Protocol::Naive);
        let mut rm = ReplicationManager::new(PeerId(0), cfg);
        let mut fx = Effects::new();
        assert!(!rm.replicate_additional_hop(ctx(0), &[item(10)], &[PeerId(1)], &mut fx));
        assert!(fx.is_empty());
    }

    #[test]
    fn extra_hop_with_short_successor_list_uses_last_known() {
        let mut rm =
            ReplicationManager::new(PeerId(0), SystemConfig::fast().with_replication_factor(4));
        let mut fx = Effects::new();
        assert!(rm.replicate_additional_hop(ctx(0), &[item(10)], &[PeerId(1), PeerId(2)], &mut fx));
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: ReplMsg::Push { .. } } if *to == PeerId(2)
        )));
    }

    #[test]
    fn prune_owned_drops_replicas_inside_own_range() {
        let mut rm = ReplicationManager::new(PeerId(1), SystemConfig::fast());
        let mut fx = Effects::new();
        handle_with_snapshot(
            &mut rm,
            ctx(1),
            PeerId(0),
            ReplMsg::Push {
                items: vec![item(10), item(50)].into(),
            },
            &[],
            &[],
            &mut fx,
        );
        rm.prune_owned(&CircularRange::new(40u64, 60u64));
        assert_eq!(rm.replica_count(), 1);
        assert_eq!(rm.replicas()[0].0, 10);
    }

    #[test]
    fn recovery_roundtrip_serves_copies_and_reports_items() {
        // Holder rm keeps replicas for a failed peer's range.
        let mut holder = ReplicationManager::new(PeerId(2), SystemConfig::fast());
        let mut fx = Effects::new();
        ProtocolLayer::handle(
            &mut holder,
            ctx(2),
            PeerId(9),
            ReplMsg::Push {
                items: vec![item(10), item(50)].into(),
            },
            &mut fx,
        );
        // The reviver asks for (5, 20]; the holder answers with copies only.
        let mut fx2 = Effects::new();
        ProtocolLayer::handle(
            &mut holder,
            ctx(2),
            PeerId(1),
            ReplMsg::RecoverRequest {
                range: CircularRange::new(5u64, 20u64),
            },
            &mut fx2,
        );
        match &fx2.drain()[0] {
            Effect::Send {
                to,
                msg: ReplMsg::RecoverReply { items },
            } => {
                assert_eq!(*to, PeerId(1));
                assert_eq!(items.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![10]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(holder.replica_count(), 2, "replies are copies");
        // An empty match sends nothing.
        let mut fx3 = Effects::new();
        ProtocolLayer::handle(
            &mut holder,
            ctx(2),
            PeerId(1),
            ReplMsg::RecoverRequest {
                range: CircularRange::new(60u64, 70u64),
            },
            &mut fx3,
        );
        assert!(fx3.is_empty());
        // The reviver surfaces the reply as an event.
        let mut reviver = ReplicationManager::new(PeerId(1), SystemConfig::fast());
        let mut fx4 = Effects::new();
        ProtocolLayer::handle(
            &mut reviver,
            ctx(1),
            PeerId(2),
            ReplMsg::RecoverReply {
                items: vec![item(10)],
            },
            &mut fx4,
        );
        assert!(matches!(
            &reviver.drain_events()[0],
            ReplEvent::Recovered { items } if items.len() == 1
        ));
    }

    #[test]
    fn pushes_report_only_the_changed_delta() {
        let mut rm = ReplicationManager::new(PeerId(1), SystemConfig::fast());
        let mut fx = Effects::new();
        ProtocolLayer::handle(
            &mut rm,
            ctx(1),
            PeerId(0),
            ReplMsg::Push {
                items: vec![item(10), item(20)].into(),
            },
            &mut fx,
        );
        assert!(matches!(
            &rm.drain_events()[..],
            [ReplEvent::ReplicasInstalled { items }] if items.len() == 2
        ));
        // An identical re-push changes nothing and reports nothing — the WAL
        // must not grow on pushes that bring nothing new.
        ProtocolLayer::handle(
            &mut rm,
            ctx(1),
            PeerId(0),
            ReplMsg::Push {
                items: vec![item(10), item(20)].into(),
            },
            &mut fx,
        );
        assert!(rm.drain_events().is_empty());
        // A push with one changed item reports exactly that item.
        let changed = (
            10,
            Item::new(
                pepper_types::ItemId::new(PeerId(7), 10),
                SearchKey(10),
                "v2",
            ),
        );
        ProtocolLayer::handle(
            &mut rm,
            ctx(1),
            PeerId(0),
            ReplMsg::Push {
                items: vec![changed.clone(), item(20)].into(),
            },
            &mut fx,
        );
        assert!(matches!(
            &rm.drain_events()[..],
            [ReplEvent::ReplicasInstalled { items }] if items == &vec![changed.clone()]
        ));
    }

    #[test]
    fn receivers_of_one_shared_batch_each_install_their_own_delta() {
        let batch: Batch = vec![item(10), item(20)].into();
        let push = ReplMsg::Push {
            items: Arc::clone(&batch),
        };
        let mut fx = Effects::new();
        // One receiver already holds item 10, the other holds nothing.
        let mut partial = ReplicationManager::new(PeerId(1), SystemConfig::fast());
        partial.install_replicas(vec![item(10)]);
        let mut empty = ReplicationManager::new(PeerId(2), SystemConfig::fast());
        ProtocolLayer::handle(&mut partial, ctx(1), PeerId(0), push.clone(), &mut fx);
        ProtocolLayer::handle(&mut empty, ctx(2), PeerId(0), push, &mut fx);
        assert!(matches!(
            &partial.drain_events()[..],
            [ReplEvent::ReplicasInstalled { items }] if items[..] == [item(20)]
        ));
        assert!(matches!(
            &empty.drain_events()[..],
            [ReplEvent::ReplicasInstalled { items }] if items[..] == batch[..]
        ));
        // Both end up holding the whole batch.
        assert_eq!(partial.replicas(), batch.to_vec());
        assert_eq!(empty.replicas(), batch.to_vec());
        assert!(fx.is_empty());
    }

    fn versioned(k: u64, payload: &str) -> (u64, Item) {
        let id = pepper_types::ItemId::new(PeerId(7), k);
        (k, Item::new(id, SearchKey(k), payload))
    }

    /// Delivers one push and returns the events it led to.
    fn deliver(rm: &mut ReplicationManager, from: PeerId, items: &Batch) -> Vec<ReplEvent> {
        let push = ReplMsg::Push {
            items: Arc::clone(items),
        };
        let mut fx = Effects::new();
        ProtocolLayer::handle(rm, ctx(1), from, push, &mut fx);
        assert!(fx.is_empty());
        rm.drain_events()
    }

    #[test]
    fn any_change_of_the_replica_store_makes_the_next_push_walk_again() {
        type Change = fn(&mut ReplicationManager);
        // Each change touches key 10 of the batch; the re-push must put the
        // sender's version back and report it.
        let changes: [(&str, Change); 4] = [
            ("another sender overwrites a key", |rm| {
                let other: Batch = vec![versioned(10, "theirs")].into();
                assert_eq!(deliver(rm, PeerId(8), &other).len(), 1);
            }),
            ("prune_owned removes a key", |rm| {
                rm.prune_owned(&CircularRange::new(5u64, 10u64));
            }),
            ("take_replicas_in removes a key", |rm| {
                assert_eq!(
                    rm.take_replicas_in(&CircularRange::new(5u64, 10u64)).len(),
                    1
                );
            }),
            ("install_replicas overwrites a key", |rm| {
                rm.install_replicas(vec![versioned(10, "recovered")]);
            }),
        ];
        for (what, change) in changes {
            let mut rm = ReplicationManager::new(PeerId(1), SystemConfig::fast());
            let batch: Batch = vec![item(10), item(20)].into();
            deliver(&mut rm, PeerId(0), &batch);
            assert!(deliver(&mut rm, PeerId(0), &batch).is_empty(), "{what}");
            change(&mut rm);
            let events = deliver(&mut rm, PeerId(0), &batch);
            assert!(
                matches!(
                    &events[..],
                    [ReplEvent::ReplicasInstalled { items }] if items[..] == [item(10)]
                ),
                "{what}: {events:?}"
            );
            assert_eq!(rm.replicas(), batch.to_vec(), "{what}");
            // Whole again: the next round installs nothing.
            assert!(deliver(&mut rm, PeerId(0), &batch).is_empty(), "{what}");
        }
    }

    /// The targets of the pushes in `fx`, drained.
    fn pushed(fx: &mut Effects<ReplMsg>) -> Vec<PeerId> {
        let targets = fx.iter().filter_map(|e| match e {
            Effect::Send {
                to,
                msg: ReplMsg::Push { .. },
            } => Some(*to),
            _ => None,
        });
        let targets = targets.collect();
        fx.drain();
        targets
    }

    #[test]
    fn a_refresh_round_with_nothing_new_stays_quiet() {
        let mut rm = ReplicationManager::new(PeerId(0), SystemConfig::fast());
        let mut fx = Effects::new();
        let batch: Batch = vec![item(10), item(20)].into();
        let succs = [PeerId(0), PeerId(1), PeerId(2), PeerId(3)];
        // Only a round that pushes builds its batch.
        let built = std::cell::Cell::new(0);
        let refresh = |rm: &mut ReplicationManager, version, succs: &[PeerId], fx: &mut _| {
            let build = || {
                built.set(built.get() + 1);
                Arc::clone(&batch)
            };
            rm.refresh(version, succs.iter().copied(), build, fx);
        };
        // The first round has nothing to compare against and pushes.
        refresh(&mut rm, 5, &succs, &mut fx);
        assert_eq!(pushed(&mut fx), [PeerId(1), PeerId(2)]);
        // Same items, same targets: no round sends anything.
        for round in 1..=64 {
            refresh(&mut rm, 5, &succs, &mut fx);
            assert!(fx.is_empty(), "round {round}");
        }
        // A stored or deleted item is a new store version: the next round
        // pushes, and the ones after are quiet again.
        refresh(&mut rm, 6, &succs, &mut fx);
        assert_eq!(pushed(&mut fx), [PeerId(1), PeerId(2)]);
        for _ in 0..64 {
            refresh(&mut rm, 6, &succs, &mut fx);
        }
        assert!(fx.is_empty());
        // A changed target list: the next round pushes to the new list. A
        // change past the first k, or of this peer's own entry, is none.
        refresh(&mut rm, 6, &[PeerId(1), PeerId(2), PeerId(7)], &mut fx);
        assert!(fx.is_empty());
        let moved = [PeerId(1), PeerId(4), PeerId(2)];
        refresh(&mut rm, 6, &moved, &mut fx);
        assert_eq!(pushed(&mut fx), [PeerId(1), PeerId(4)]);
        refresh(&mut rm, 6, &moved, &mut fx);
        assert!(fx.is_empty());
        let shorter = [PeerId(1)];
        refresh(&mut rm, 6, &shorter, &mut fx);
        assert_eq!(pushed(&mut fx), [PeerId(1)]);
        refresh(&mut rm, 6, &shorter, &mut fx);
        assert!(fx.is_empty());
        assert_eq!(built.get(), 4, "a batch per pushing round");
    }

    #[test]
    fn store_range_and_extra_hop_pushes_are_never_skipped_and_reset_the_memo() {
        let mut rm = ReplicationManager::new(PeerId(0), SystemConfig::fast());
        let mut fx = Effects::new();
        let batch: Batch = vec![item(10)].into();
        let succs = [PeerId(1), PeerId(2), PeerId(3)];
        let refresh = |rm: &mut ReplicationManager, fx: &mut _| {
            rm.refresh(5, succs.iter().copied(), || Arc::clone(&batch), fx);
        };
        refresh(&mut rm, &mut fx);
        assert_eq!(pushed(&mut fx).len(), 2);
        refresh(&mut rm, &mut fx);
        assert!(fx.is_empty());
        // A store push or a range push (`push_batch`) repeating the last
        // push still sends, and the rounds after it stay quiet.
        rm.push_batch(Arc::clone(&batch), Some(5), succs, &mut fx);
        assert_eq!(pushed(&mut fx), [PeerId(1), PeerId(2)]);
        for _ in 0..64 {
            refresh(&mut rm, &mut fx);
        }
        assert!(fx.is_empty());
        // A one-off push, the pinned `push_to_successors` or the extra
        // hop, leaves nothing to compare against: the next round pushes.
        rm.push_to_successors(ctx(0), &batch, &succs, &mut fx);
        assert_eq!(pushed(&mut fx).len(), 2);
        refresh(&mut rm, &mut fx);
        assert_eq!(pushed(&mut fx).len(), 2);
        assert!(rm.replicate_additional_hop(ctx(0), &batch, &succs, &mut fx));
        assert_eq!(pushed(&mut fx), [PeerId(3)]);
        refresh(&mut rm, &mut fx);
        assert_eq!(pushed(&mut fx).len(), 2);
        refresh(&mut rm, &mut fx);
        assert!(fx.is_empty());
    }

    #[test]
    fn a_target_seen_joining_again_is_pushed_again() {
        let mut rm = ReplicationManager::new(PeerId(0), SystemConfig::fast());
        let mut fx = Effects::new();
        let batch: Batch = vec![item(10)].into();
        let succs = [PeerId(1), PeerId(2), PeerId(3)];
        let refresh = |rm: &mut ReplicationManager, fx: &mut _| {
            rm.refresh(5, succs.iter().copied(), || Arc::clone(&batch), fx);
        };
        refresh(&mut rm, &mut fx);
        assert_eq!(pushed(&mut fx), [PeerId(1), PeerId(2)]);
        // A joining peer that was no target changes nothing.
        rm.forget_rejoined_targets([PeerId(4)].into_iter());
        refresh(&mut rm, &mut fx);
        assert!(fx.is_empty());
        // Target 2 left, is seen joining again and is back by the next
        // round: that round pushes, and the one after is quiet again.
        rm.forget_rejoined_targets([PeerId(4), PeerId(2)].into_iter());
        refresh(&mut rm, &mut fx);
        assert_eq!(pushed(&mut fx), [PeerId(1), PeerId(2)]);
        refresh(&mut rm, &mut fx);
        assert!(fx.is_empty());
    }

    #[test]
    fn install_replicas_is_silent() {
        let mut rm = ReplicationManager::new(PeerId(1), SystemConfig::fast());
        rm.install_replicas(vec![item(5), item(6)]);
        assert_eq!(rm.replica_count(), 2);
        assert!(rm.drain_events().is_empty());
    }
}
