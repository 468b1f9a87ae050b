//! The replication manager state machine.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use pepper_net::{Effects, LayerCtx, ProtocolLayer};
use pepper_types::{CircularRange, Item, PeerId, Protocol, SystemConfig};

use crate::events::ReplEvent;
use crate::messages::{Batch, BatchStamp, ReplMsg};

/// The per-peer replication manager.
#[derive(Debug, Clone)]
pub struct ReplicationManager {
    id: PeerId,
    cfg: SystemConfig,
    /// Replicas held on behalf of predecessors, keyed by mapped value.
    replica_store: BTreeMap<u64, Item>,
    /// The stamped batches walked since `replica_store` last changed, one per
    /// sender: the store still holds every entry of each, so walking one
    /// again would install nothing. Every mutation of `replica_store` goes
    /// through [`Self::store_changed`], which empties this.
    walked: Vec<(PeerId, BatchStamp)>,
    timers_started: bool,
    /// Pushes recognised in `walked` and not walked again (metrics).
    pushes_skipped: u64,
    /// Pushes walked that installed nothing (metrics).
    pushes_noop_walked: u64,
    /// Events buffered for the composed peer.
    events: Vec<ReplEvent>,
}

impl ReplicationManager {
    /// Creates a replication manager for peer `id`.
    pub fn new(id: PeerId, cfg: SystemConfig) -> Self {
        ReplicationManager {
            id,
            cfg,
            replica_store: BTreeMap::new(),
            walked: Vec::new(),
            timers_started: false,
            pushes_skipped: 0,
            pushes_noop_walked: 0,
            events: Vec::new(),
        }
    }

    /// Number of replicas currently held.
    pub fn replica_count(&self) -> usize {
        self.replica_store.len()
    }

    /// All replicas held (mapped value, item).
    pub fn replicas(&self) -> Vec<(u64, Item)> {
        self.replica_store
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// Whether a replica for `mapped` is currently held.
    pub fn holds_replica(&self, mapped: u64) -> bool {
        self.replica_store.contains_key(&mapped)
    }

    /// Of the pushes received, how many carried a batch this peer had
    /// already walked with no change to its replica store since, and were
    /// therefore not walked again.
    pub fn pushes_skipped(&self) -> u64 {
        self.pushes_skipped
    }

    /// Of the pushes received, how many were walked item by item and
    /// installed nothing — the redundancy the skip does not catch.
    pub fn pushes_noop_walked(&self) -> u64 {
        self.pushes_noop_walked
    }

    /// Pushes this peer's items to its `k` nearest successors (one refresh
    /// round of the CFS scheme). The batch is built here and unstamped, so
    /// every receiver walks it.
    pub fn push_to_successors(
        &mut self,
        _ctx: LayerCtx,
        own_items: &[(u64, Item)],
        successors: &[PeerId],
        fx: &mut Effects<ReplMsg>,
    ) {
        self.push_batch(own_items.into(), None, successors.iter().copied(), fx);
    }

    /// One refresh round over an already built batch: every one of the `k`
    /// nearest successors is sent the same shared `batch`. A caller that
    /// keeps the batch across rounds names it with a `stamp` (equal stamps,
    /// same batch), which lets receivers skip a batch they already hold.
    pub fn push_batch(
        &mut self,
        batch: Batch,
        stamp: Option<BatchStamp>,
        successors: impl IntoIterator<Item = PeerId>,
        fx: &mut Effects<ReplMsg>,
    ) {
        if batch.is_empty() {
            return;
        }
        let targets = successors
            .into_iter()
            .filter(|p| *p != self.id)
            .take(self.cfg.replication_factor);
        for target in targets {
            fx.send(
                target,
                ReplMsg::Push {
                    items: Arc::clone(&batch),
                    stamp,
                    extra_hop: false,
                },
            );
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
        let held: Batch = self.replicas().into();
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
        let target = candidates
            .get(self.cfg.replication_factor)
            .copied()
            .unwrap_or_else(|| *candidates.last().expect("non-empty"));
        fx.send(
            target,
            ReplMsg::Push {
                items: payload,
                stamp: None,
                extra_hop: true,
            },
        );
        // Also hand the replicas we hold to our immediate successor so the
        // items of our predecessors keep k copies after we are gone.
        if let Some(first) = candidates.first().copied() {
            if first != target && !held.is_empty() {
                fx.send(
                    first,
                    ReplMsg::Push {
                        items: held,
                        stamp: None,
                        extra_hop: true,
                    },
                );
            }
        }
        true
    }

    /// Returns (and removes from the replica store) the replicas that fall
    /// in `acquired`, to be revived into the Data Store after this peer took
    /// over a failed predecessor's range.
    pub fn take_replicas_in(&mut self, acquired: &CircularRange) -> Vec<(u64, Item)> {
        let mut taken = Vec::new();
        self.replica_store.retain(|mapped, item| {
            let take = acquired.contains(*mapped);
            if take {
                taken.push((*mapped, item.clone()));
            }
            !take
        });
        if !taken.is_empty() {
            self.store_changed();
        }
        taken
    }

    /// Installs replicas recovered from durable storage after a restart (no
    /// event is emitted: the records are already journaled).
    pub fn install_replicas(&mut self, items: Vec<(u64, Item)>) {
        self.replica_store.extend(items);
        self.store_changed();
    }

    /// Drops replicas that are now owned by this peer itself (they live in
    /// the Data Store) or that fall outside the watched range. Called
    /// opportunistically by the composed peer; keeps the replica store from
    /// growing without bound in long experiments.
    pub fn prune_owned(&mut self, own_range: &CircularRange) {
        let held = self.replica_store.len();
        self.replica_store
            .retain(|mapped, _| !own_range.contains(*mapped));
        if self.replica_store.len() != held {
            self.store_changed();
        }
    }

    /// Must follow every mutation of `replica_store`: a batch walked before
    /// the change may no longer be held in full.
    fn store_changed(&mut self) {
        self.walked.clear();
    }

    /// Installs what `items` holds that the replica store does not, and
    /// returns it.
    fn install_delta(&mut self, items: &[(u64, Item)]) -> Vec<(u64, Item)> {
        let mut delta = Vec::new();
        for (mapped, item) in items {
            if self.replica_store.get(mapped) != Some(item) {
                delta.push((*mapped, item.clone()));
                self.replica_store.insert(*mapped, item.clone());
            }
        }
        if !delta.is_empty() {
            self.store_changed();
        }
        delta
    }
}

impl ProtocolLayer for ReplicationManager {
    type Msg = ReplMsg;
    type Event = ReplEvent;

    /// Schedules the periodic refresh timer. Idempotent.
    fn start_timers(&mut self, _ctx: LayerCtx, fx: &mut Effects<ReplMsg>) {
        if self.timers_started {
            return;
        }
        self.timers_started = true;
        let stagger = Duration::from_micros((self.id.raw() % 89) * 300);
        fx.timer(
            self.cfg.replica_refresh_period / 2 + stagger,
            ReplMsg::RefreshTick,
        );
    }

    /// Handles a replication message. The refresh round itself is performed
    /// by the composed peer in response to [`ReplEvent::RefreshDue`], because
    /// it needs the Data Store's items and the ring's successor list.
    fn handle(&mut self, _ctx: LayerCtx, from: PeerId, msg: ReplMsg, fx: &mut Effects<ReplMsg>) {
        match msg {
            ReplMsg::RefreshTick => {
                fx.timer(self.cfg.replica_refresh_period, ReplMsg::RefreshTick);
                self.events.push(ReplEvent::RefreshDue);
            }
            ReplMsg::Push {
                items,
                stamp,
                extra_hop: _,
            } => {
                if stamp.is_some_and(|stamp| self.walked.contains(&(from, stamp))) {
                    self.pushes_skipped += 1;
                    // Debug builds (the test suite, the harness seed matrix)
                    // do the walk the skip saves, to check it.
                    debug_assert!(
                        items
                            .iter()
                            .all(|(mapped, item)| self.replica_store.get(mapped) == Some(item)),
                        "skipped push {stamp:?} from {from} would have installed something"
                    );
                    return;
                }
                let delta = self.install_delta(&items);
                // Recorded after the walk, which empties `walked` when it
                // installs something: the batch is held in full either way.
                if let Some(stamp) = stamp {
                    match self.walked.iter_mut().find(|(peer, _)| *peer == from) {
                        Some(entry) => entry.1 = stamp,
                        None => self.walked.push((from, stamp)),
                    }
                }
                if delta.is_empty() {
                    self.pushes_noop_walked += 1;
                } else {
                    self.events
                        .push(ReplEvent::ReplicasInstalled { items: delta });
                }
            }
            ReplMsg::RecoverRequest { range } => {
                // Answer with copies: the requester owns the range now, so
                // the copies this peer keeps remain valid replicas.
                let items: Vec<(u64, Item)> = self
                    .replica_store
                    .iter()
                    .filter(|(k, _)| range.contains(**k))
                    .map(|(k, v)| (*k, v.clone()))
                    .collect();
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
                    msg:
                        ReplMsg::Push {
                            extra_hop: false,
                            items,
                            ..
                        },
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
                stamp: None,
                extra_hop: false,
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
                stamp: None,
                extra_hop: false,
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
                stamp: None,
                extra_hop: false,
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
            Effect::Send { to, msg: ReplMsg::Push { extra_hop: true, items, .. } }
                if *to == PeerId(3) && items[..] == [item(10), item(5)]
        )));
        // The held replicas also move to the immediate successor.
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: ReplMsg::Push { extra_hop: true, items, .. } }
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
            Effect::Send { to, msg: ReplMsg::Push { extra_hop: true, .. } } if *to == PeerId(2)
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
                stamp: None,
                extra_hop: false,
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
                stamp: None,
                extra_hop: false,
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
                stamp: None,
                extra_hop: false,
            },
            &mut fx,
        );
        assert!(matches!(
            &rm.drain_events()[..],
            [ReplEvent::ReplicasInstalled { items }] if items.len() == 2
        ));
        // An identical re-push (the periodic refresh) changes nothing and
        // reports nothing — the WAL must not grow on refresh rounds.
        ProtocolLayer::handle(
            &mut rm,
            ctx(1),
            PeerId(0),
            ReplMsg::Push {
                items: vec![item(10), item(20)].into(),
                stamp: None,
                extra_hop: false,
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
                stamp: None,
                extra_hop: false,
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
            stamp: None,
            extra_hop: false,
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

    fn stamp(built_at_secs: u64, store_version: u64) -> BatchStamp {
        BatchStamp {
            built_at: SimTime::from_secs(built_at_secs),
            store_version,
        }
    }

    fn versioned(k: u64, payload: &str) -> (u64, Item) {
        let id = pepper_types::ItemId::new(PeerId(7), k);
        (k, Item::new(id, SearchKey(k), payload))
    }

    /// Delivers one push and returns the events it led to.
    fn deliver(
        rm: &mut ReplicationManager,
        from: PeerId,
        items: &Batch,
        stamp: Option<BatchStamp>,
    ) -> Vec<ReplEvent> {
        let push = ReplMsg::Push {
            items: Arc::clone(items),
            stamp,
            extra_hop: false,
        };
        let mut fx = Effects::new();
        ProtocolLayer::handle(rm, ctx(1), from, push, &mut fx);
        assert!(fx.is_empty());
        rm.drain_events()
    }

    #[test]
    fn a_stamped_batch_already_walked_is_skipped_but_still_counted() {
        let mut rm = ReplicationManager::new(PeerId(1), SystemConfig::fast());
        let batch: Batch = vec![item(10), item(20)].into();
        let first = deliver(&mut rm, PeerId(0), &batch, Some(stamp(1, 5)));
        assert!(matches!(
            &first[..],
            [ReplEvent::ReplicasInstalled { items }] if items[..] == batch[..]
        ));
        assert_eq!((rm.pushes_skipped(), rm.pushes_noop_walked()), (0, 0));
        // The refresh rounds that follow resend the very same batch.
        for round in 1..=3 {
            assert!(deliver(&mut rm, PeerId(0), &batch, Some(stamp(1, 5))).is_empty());
            assert_eq!(rm.pushes_skipped(), round);
        }
        assert_eq!(rm.pushes_noop_walked(), 0);
        // The memo is per sender: the same stamp from another peer names
        // another batch. It is walked once, then skipped too.
        assert!(deliver(&mut rm, PeerId(9), &batch, Some(stamp(1, 5))).is_empty());
        assert_eq!((rm.pushes_skipped(), rm.pushes_noop_walked()), (3, 1));
        assert!(deliver(&mut rm, PeerId(9), &batch, Some(stamp(1, 5))).is_empty());
        assert!(deliver(&mut rm, PeerId(0), &batch, Some(stamp(1, 5))).is_empty());
        assert_eq!((rm.pushes_skipped(), rm.pushes_noop_walked()), (5, 1));
        // An unstamped push of the same items is always walked.
        assert!(deliver(&mut rm, PeerId(0), &batch, None).is_empty());
        assert_eq!((rm.pushes_skipped(), rm.pushes_noop_walked()), (5, 2));
        assert_eq!(rm.replicas(), batch.to_vec());
    }

    #[test]
    fn any_change_of_the_replica_store_makes_the_next_push_walk_again() {
        type Change = fn(&mut ReplicationManager);
        // Each change touches key 10 of the batch; the re-push must put the
        // sender's version back and report it.
        let changes: [(&str, Change); 4] = [
            ("another sender overwrites a key", |rm| {
                let other: Batch = vec![versioned(10, "theirs")].into();
                assert_eq!(deliver(rm, PeerId(8), &other, Some(stamp(1, 1))).len(), 1);
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
            deliver(&mut rm, PeerId(0), &batch, Some(stamp(1, 5)));
            assert!(deliver(&mut rm, PeerId(0), &batch, Some(stamp(1, 5))).is_empty());
            assert_eq!(rm.pushes_skipped(), 1, "{what}");
            change(&mut rm);
            let events = deliver(&mut rm, PeerId(0), &batch, Some(stamp(1, 5)));
            assert!(
                matches!(
                    &events[..],
                    [ReplEvent::ReplicasInstalled { items }] if items[..] == [item(10)]
                ),
                "{what}: {events:?}"
            );
            assert_eq!(rm.pushes_skipped(), 1, "{what}");
            assert_eq!(rm.replicas(), batch.to_vec(), "{what}");
            // Whole again: the next round is skipped.
            assert!(deliver(&mut rm, PeerId(0), &batch, Some(stamp(1, 5))).is_empty());
            assert_eq!(rm.pushes_skipped(), 2, "{what}");
        }
        // A prune or take that finds nothing leaves the memo alone.
        let mut rm = ReplicationManager::new(PeerId(1), SystemConfig::fast());
        let batch: Batch = vec![item(10), item(20)].into();
        deliver(&mut rm, PeerId(0), &batch, Some(stamp(1, 5)));
        rm.prune_owned(&CircularRange::new(40u64, 60u64));
        assert!(rm
            .take_replicas_in(&CircularRange::new(40u64, 60u64))
            .is_empty());
        assert!(deliver(&mut rm, PeerId(0), &batch, Some(stamp(1, 5))).is_empty());
        assert_eq!(rm.pushes_skipped(), 1);
    }

    #[test]
    fn a_restarted_sender_reaching_an_old_store_version_is_not_mistaken_for_its_past() {
        let mut rm = ReplicationManager::new(PeerId(1), SystemConfig::fast());
        let before: Batch = vec![item(10), item(20)].into();
        deliver(&mut rm, PeerId(0), &before, Some(stamp(1, 2)));
        assert!(deliver(&mut rm, PeerId(0), &before, Some(stamp(1, 2))).is_empty());
        // Peer 0 crashes, restarts with its counter reset, and two mutations
        // later owns other items under store version 2 again. Nothing
        // touched this replica store in between.
        let after: Batch = vec![item(30), item(40)].into();
        let events = deliver(&mut rm, PeerId(0), &after, Some(stamp(90, 2)));
        assert!(matches!(
            &events[..],
            [ReplEvent::ReplicasInstalled { items }] if items[..] == after[..]
        ));
        assert_eq!(rm.replica_count(), 4);
    }

    #[test]
    fn skipping_never_changes_what_a_manager_holds_or_reports() {
        // Three senders whose batches change now and then push to `memo`
        // with stamps and to `reference` without, so `reference` walks
        // everything; prunes, revivals and recoveries hit both alike.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut memo = ReplicationManager::new(PeerId(1), SystemConfig::fast());
        let mut reference = memo.clone();
        let senders = [PeerId(10), PeerId(11), PeerId(12)];
        let mut batches: Vec<(BatchStamp, Batch)> =
            vec![(stamp(0, 0), Arc::new([])); senders.len()];
        for step in 1..=4000u64 {
            let range = {
                let low = next(64);
                CircularRange::new(low, (low + 1 + next(8)) % 64)
            };
            match next(20) {
                0..=11 => {
                    let s = next(3) as usize;
                    let (stamp, batch) = &batches[s];
                    let got = deliver(&mut memo, senders[s], batch, Some(*stamp));
                    assert_eq!(got, deliver(&mut reference, senders[s], batch, None));
                }
                12..=14 => {
                    // Senders overlap on keys 0..64 and disagree on payloads.
                    let s = next(3) as usize;
                    let items: Vec<(u64, Item)> = (0..64)
                        .filter_map(|k| match next(8) {
                            0 => Some(versioned(k, "a")),
                            1 => Some(versioned(k, "b")),
                            _ => None,
                        })
                        .collect();
                    batches[s] = (stamp(step, batches[s].0.store_version + 1), items.into());
                }
                15 | 16 => {
                    memo.prune_owned(&range);
                    reference.prune_owned(&range);
                }
                17 => assert_eq!(
                    memo.take_replicas_in(&range),
                    reference.take_replicas_in(&range)
                ),
                18 => {
                    let items = vec![versioned(next(64), "recovered")];
                    memo.install_replicas(items.clone());
                    reference.install_replicas(items);
                }
                _ => {
                    let batch: Batch = vec![versioned(next(64), "hop")].into();
                    let got = deliver(&mut memo, PeerId(13), &batch, None);
                    assert_eq!(got, deliver(&mut reference, PeerId(13), &batch, None));
                }
            }
            assert_eq!(memo.replicas(), reference.replicas(), "step {step}");
        }
        assert_eq!(reference.pushes_skipped(), 0);
        assert!(
            memo.pushes_skipped() > 200 && memo.pushes_noop_walked() > 0,
            "the sequence must exercise both: {} skipped, {} walked for nothing",
            memo.pushes_skipped(),
            memo.pushes_noop_walked()
        );
    }

    #[test]
    fn install_replicas_is_silent() {
        let mut rm = ReplicationManager::new(PeerId(1), SystemConfig::fast());
        rm.install_replicas(vec![item(5), item(6)]);
        assert_eq!(rm.replica_count(), 2);
        assert!(rm.drain_events().is_empty());
    }

    #[test]
    fn timers_start_once() {
        let mut rm = ReplicationManager::new(PeerId(1), SystemConfig::fast());
        let mut fx = Effects::new();
        rm.start_timers(ctx(1), &mut fx);
        rm.start_timers(ctx(1), &mut fx);
        assert_eq!(fx.len(), 1);
    }
}
