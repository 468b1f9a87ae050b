//! The replication manager state machine.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use pepper_net::{Effects, LayerCtx, ProtocolLayer};
use pepper_types::{CircularRange, Item, KeyInterval, PeerId, SystemConfig};

use crate::events::ReplEvent;
use crate::messages::ReplMsg;

/// Configuration of the Replication Manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaConfig {
    /// Replication factor `k`: each item is pushed to `k` successors.
    pub replication_factor: usize,
    /// Period of the replica refresh loop.
    pub refresh_period: Duration,
    /// Whether the pre-leave additional-hop replication is enabled (the
    /// PEPPER item-availability protection).
    pub extra_hop_enabled: bool,
}

impl ReplicaConfig {
    /// Derives the replication configuration from the system configuration.
    pub fn from_system(cfg: &SystemConfig) -> Self {
        ReplicaConfig {
            replication_factor: cfg.replication_factor,
            refresh_period: cfg.replica_refresh_period,
            extra_hop_enabled: cfg.protocol.extra_hop_replication,
        }
    }

    /// Small test configuration (`k = 2`, fast refresh).
    pub fn test(k: usize) -> Self {
        ReplicaConfig {
            replication_factor: k,
            refresh_period: Duration::from_millis(200),
            extra_hop_enabled: true,
        }
    }
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig::from_system(&SystemConfig::paper_defaults())
    }
}

/// The per-peer replication manager.
#[derive(Debug, Clone)]
pub struct ReplicationManager {
    id: PeerId,
    cfg: ReplicaConfig,
    /// Replicas held on behalf of predecessors, keyed by mapped value.
    replica_store: BTreeMap<u64, Item>,
    timers_started: bool,
    /// Number of replica pushes received (metrics).
    pushes_received: u64,
    /// Number of extra-hop pushes performed (metrics).
    extra_hop_pushes: u64,
    /// Events buffered for the composed peer.
    events: Vec<ReplEvent>,
}

impl ReplicationManager {
    /// Creates a replication manager for peer `id`.
    pub fn new(id: PeerId, cfg: ReplicaConfig) -> Self {
        ReplicationManager {
            id,
            cfg,
            replica_store: BTreeMap::new(),
            timers_started: false,
            pushes_received: 0,
            extra_hop_pushes: 0,
            events: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ReplicaConfig {
        &self.cfg
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

    /// Whether a replica for `mapped` is currently held (used by the
    /// whole-system replication oracle).
    pub fn holds_replica(&self, mapped: u64) -> bool {
        self.replica_store.contains_key(&mapped)
    }

    /// Number of replica pushes received (metrics).
    pub fn pushes_received(&self) -> u64 {
        self.pushes_received
    }

    /// Number of additional-hop pushes performed (metrics).
    pub fn extra_hop_pushes(&self) -> u64 {
        self.extra_hop_pushes
    }

    /// Pushes this peer's items to its `k` nearest successors (one refresh
    /// round of the CFS scheme).
    pub fn push_to_successors(
        &mut self,
        _ctx: LayerCtx,
        own_items: &[(u64, Item)],
        successors: &[PeerId],
        fx: &mut Effects<ReplMsg>,
    ) {
        self.push_batch(own_items.into(), successors.iter().copied(), fx);
    }

    /// One refresh round over an already built batch: every one of the `k`
    /// nearest successors is sent the same shared `batch`.
    pub fn push_batch(
        &mut self,
        batch: Arc<[(u64, Item)]>,
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
        if !self.cfg.extra_hop_enabled {
            return false;
        }
        let mut payload: Vec<(u64, Item)> = own_items.to_vec();
        payload.extend(self.replicas());
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
        self.extra_hop_pushes += 1;
        fx.send(
            target,
            ReplMsg::Push {
                items: payload.into(),
                extra_hop: true,
            },
        );
        // Also hand the replicas we hold to our immediate successor so the
        // items of our predecessors keep k copies after we are gone.
        if let Some(first) = candidates.first().copied() {
            if first != target && !self.replica_store.is_empty() {
                fx.send(
                    first,
                    ReplMsg::Push {
                        items: self.replicas().into(),
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
        let keys: Vec<u64> = self
            .replica_store
            .keys()
            .filter(|k| acquired.contains(**k))
            .copied()
            .collect();
        keys.into_iter()
            .map(|k| (k, self.replica_store.remove(&k).expect("key present")))
            .collect()
    }

    /// Installs replicas recovered from durable storage after a restart (no
    /// event is emitted: the records are already journaled).
    pub fn install_replicas(&mut self, items: Vec<(u64, Item)>) {
        for (mapped, item) in items {
            self.replica_store.insert(mapped, item);
        }
    }

    /// Returns the replicas in a linear interval without removing them
    /// (used by oracles and tests).
    pub fn replicas_in_interval(&self, iv: &KeyInterval) -> Vec<(u64, Item)> {
        self.replica_store
            .range(iv.lo()..=iv.hi())
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// Drops replicas that are now owned by this peer itself (they live in
    /// the Data Store) or that fall outside the watched range. Called
    /// opportunistically by the composed peer; keeps the replica store from
    /// growing without bound in long experiments.
    pub fn prune_owned(&mut self, own_range: &CircularRange) {
        let keys: Vec<u64> = self
            .replica_store
            .keys()
            .filter(|k| own_range.contains(**k))
            .copied()
            .collect();
        for k in keys {
            self.replica_store.remove(&k);
        }
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
        fx.timer(self.cfg.refresh_period / 2 + stagger, ReplMsg::RefreshTick);
    }

    /// Handles a replication message. The refresh round itself is performed
    /// by the composed peer in response to [`ReplEvent::RefreshDue`], because
    /// it needs the Data Store's items and the ring's successor list.
    fn handle(&mut self, _ctx: LayerCtx, from: PeerId, msg: ReplMsg, fx: &mut Effects<ReplMsg>) {
        match msg {
            ReplMsg::RefreshTick => {
                fx.timer(self.cfg.refresh_period, ReplMsg::RefreshTick);
                self.events.push(ReplEvent::RefreshDue);
            }
            ReplMsg::Push {
                items,
                extra_hop: _,
            } => {
                self.pushes_received += 1;
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
    use pepper_types::{ProtocolConfig, SearchKey};

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
    fn config_from_system() {
        let cfg = ReplicaConfig::from_system(&SystemConfig::paper_defaults());
        assert_eq!(cfg.replication_factor, 6);
        assert!(cfg.extra_hop_enabled);
        let naive = ReplicaConfig::from_system(
            &SystemConfig::paper_defaults().with_protocol(ProtocolConfig::naive()),
        );
        assert!(!naive.extra_hop_enabled);
    }

    #[test]
    fn refresh_pushes_to_k_successors() {
        let mut rm = ReplicationManager::new(PeerId(0), ReplicaConfig::test(2));
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
        let mut rm = ReplicationManager::new(PeerId(0), ReplicaConfig::test(2));
        let mut fx = Effects::new();
        rm.push_to_successors(ctx(0), &[], &[PeerId(1)], &mut fx);
        assert!(fx.is_empty());
    }

    #[test]
    fn push_is_stored_in_replica_store() {
        let mut rm = ReplicationManager::new(PeerId(1), ReplicaConfig::test(2));
        let mut fx = Effects::new();
        let refreshed = handle_with_snapshot(
            &mut rm,
            ctx(1),
            PeerId(0),
            ReplMsg::Push {
                items: vec![item(10), item(20)].into(),
                extra_hop: false,
            },
            &[],
            &[],
            &mut fx,
        );
        assert!(!refreshed);
        assert_eq!(rm.replica_count(), 2);
        assert_eq!(rm.pushes_received(), 1);
        assert!(rm.holds_replica(10) && rm.holds_replica(20));
        assert!(!rm.holds_replica(30));
        assert!(fx.is_empty());
    }

    #[test]
    fn revival_takes_only_acquired_range() {
        let mut rm = ReplicationManager::new(PeerId(1), ReplicaConfig::test(2));
        let mut fx = Effects::new();
        handle_with_snapshot(
            &mut rm,
            ctx(1),
            PeerId(0),
            ReplMsg::Push {
                items: vec![item(10), item(20), item(30)].into(),
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
        assert_eq!(rm.replica_count(), 1);
        assert_eq!(
            rm.replicas_in_interval(&KeyInterval::new(0, 100).unwrap())
                .len(),
            1
        );
    }

    #[test]
    fn extra_hop_targets_the_k_plus_first_successor() {
        let mut rm = ReplicationManager::new(PeerId(0), ReplicaConfig::test(2));
        let mut fx = Effects::new();
        // Pre-existing replicas held for predecessors.
        handle_with_snapshot(
            &mut rm,
            ctx(0),
            PeerId(9),
            ReplMsg::Push {
                items: vec![item(5)].into(),
                extra_hop: false,
            },
            &[],
            &[],
            &mut fx,
        );
        let own = vec![item(10)];
        let succs = vec![PeerId(1), PeerId(2), PeerId(3), PeerId(4)];
        assert!(rm.replicate_additional_hop(ctx(0), &own, &succs, &mut fx));
        assert_eq!(rm.extra_hop_pushes(), 1);
        let effects = fx.drain();
        // The main extra-hop push — own items, then the held replicas — goes
        // to the (k+1)-th successor (index 2).
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: ReplMsg::Push { extra_hop: true, items } }
                if *to == PeerId(3) && items[..] == [item(10), item(5)]
        )));
        // The held replicas also move to the immediate successor.
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: ReplMsg::Push { extra_hop: true, items } }
                if *to == PeerId(1) && items[..] == [item(5)]
        )));
        assert_eq!(effects.len(), 2);
    }

    #[test]
    fn extra_hop_disabled_in_naive_mode() {
        let cfg = ReplicaConfig {
            extra_hop_enabled: false,
            ..ReplicaConfig::test(2)
        };
        let mut rm = ReplicationManager::new(PeerId(0), cfg);
        let mut fx = Effects::new();
        assert!(!rm.replicate_additional_hop(ctx(0), &[item(10)], &[PeerId(1)], &mut fx));
        assert!(fx.is_empty());
    }

    #[test]
    fn extra_hop_with_short_successor_list_uses_last_known() {
        let mut rm = ReplicationManager::new(PeerId(0), ReplicaConfig::test(4));
        let mut fx = Effects::new();
        assert!(rm.replicate_additional_hop(ctx(0), &[item(10)], &[PeerId(1), PeerId(2)], &mut fx));
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: ReplMsg::Push { extra_hop: true, .. } } if *to == PeerId(2)
        )));
    }

    #[test]
    fn prune_owned_drops_replicas_inside_own_range() {
        let mut rm = ReplicationManager::new(PeerId(1), ReplicaConfig::test(2));
        let mut fx = Effects::new();
        handle_with_snapshot(
            &mut rm,
            ctx(1),
            PeerId(0),
            ReplMsg::Push {
                items: vec![item(10), item(50)].into(),
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
        let mut holder = ReplicationManager::new(PeerId(2), ReplicaConfig::test(2));
        let mut fx = Effects::new();
        ProtocolLayer::handle(
            &mut holder,
            ctx(2),
            PeerId(9),
            ReplMsg::Push {
                items: vec![item(10), item(50)].into(),
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
        let mut reviver = ReplicationManager::new(PeerId(1), ReplicaConfig::test(2));
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
        let mut rm = ReplicationManager::new(PeerId(1), ReplicaConfig::test(2));
        let mut fx = Effects::new();
        ProtocolLayer::handle(
            &mut rm,
            ctx(1),
            PeerId(0),
            ReplMsg::Push {
                items: vec![item(10), item(20)].into(),
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
        let batch: Arc<[(u64, Item)]> = vec![item(10), item(20)].into();
        let push = ReplMsg::Push {
            items: Arc::clone(&batch),
            extra_hop: false,
        };
        let mut fx = Effects::new();
        // One receiver already holds item 10, the other holds nothing.
        let mut partial = ReplicationManager::new(PeerId(1), ReplicaConfig::test(2));
        partial.install_replicas(vec![item(10)]);
        let mut empty = ReplicationManager::new(PeerId(2), ReplicaConfig::test(2));
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

    #[test]
    fn install_replicas_is_silent() {
        let mut rm = ReplicationManager::new(PeerId(1), ReplicaConfig::test(2));
        rm.install_replicas(vec![item(5), item(6)]);
        assert_eq!(rm.replica_count(), 2);
        assert!(rm.drain_events().is_empty());
    }

    #[test]
    fn timers_start_once() {
        let mut rm = ReplicationManager::new(PeerId(1), ReplicaConfig::test(2));
        let mut fx = Effects::new();
        rm.start_timers(ctx(1), &mut fx);
        rm.start_timers(ctx(1), &mut fx);
        assert_eq!(fx.len(), 1);
    }
}
