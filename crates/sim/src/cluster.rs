//! A simulated PEPPER index cluster.
//!
//! [`Cluster`] wraps the discrete-event simulator with index-level
//! conveniences: bootstrapping (one live peer plus a pool of free peers),
//! issuing item inserts/deletes and range queries, injecting failures, and
//! collecting per-peer [`Observation`]s and global snapshots for the oracles.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use pepper_datastore::{DsSnapshot, QueryId};
use pepper_index::{FreePool, Observation, PeerNode};
use pepper_net::{NetworkConfig, SimTime, Simulator};
use pepper_ring::consistency::{
    check_connectivity, check_consistent_successor_pointers, RingSnapshot,
};
use pepper_storage::{PeerStorage, RecoveryMode, StorageConfig};
use pepper_trace::{Metrics, TraceConfig, TraceEvent};
use pepper_types::{Item, ItemId, PeerId, PeerValue, RangeQuery, SearchKey, SystemConfig};
use rand::Rng;

/// Durable-storage settings of a simulated cluster. When present, every
/// peer journals its state through a deterministic in-memory VFS
/// ([`pepper_storage::MemVfs`]) seeded from the network seed and the peer
/// id, and [`Cluster::crash_peer`] / [`Cluster::restart_peer`] become
/// available.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Per-peer storage-engine tunables (snapshot compaction threshold).
    pub storage: StorageConfig,
    /// How restarted peers treat recovered state. [`RecoveryMode::Clean`]
    /// outside of oracle red tests.
    pub recovery: RecoveryMode,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            storage: StorageConfig::default(),
            recovery: RecoveryMode::Clean,
        }
    }
}

/// What one [`Cluster::restart_peer`] recovered and donated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RestartOutcome {
    /// WAL records replayed on top of the snapshot.
    pub wal_records_replayed: u64,
    /// Items in the recovered durable image.
    pub items_recovered: usize,
    /// Replica holdings in the recovered durable image.
    pub replicas_recovered: usize,
    /// Items handed to the rejoin donation path.
    pub donated: usize,
    /// Whether a torn/corrupt WAL tail was detected and discarded.
    pub torn_tail: bool,
}

/// Ring value of the first (bootstrap) peer.
const FIRST_VALUE: u64 = u64::MAX / 2;

/// Configuration of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Protocol and index parameters.
    pub system: SystemConfig,
    /// Network model and seed.
    pub network: NetworkConfig,
    /// Number of free peers registered at start.
    pub initial_free_peers: usize,
    /// Durable peer storage (off by default; the harness turns it on).
    pub durability: Option<DurabilityConfig>,
    /// Causal tracing + metrics (off by default — and zero-overhead when
    /// off; the trace inspector and the bench turn it on).
    pub trace: TraceConfig,
}

impl ClusterConfig {
    /// The paper's configuration (Section 6.1) on a LAN, with the given seed.
    pub fn paper(seed: u64) -> Self {
        ClusterConfig {
            system: SystemConfig::paper_defaults(),
            network: NetworkConfig::lan(seed),
            initial_free_peers: 0,
            durability: None,
            trace: TraceConfig::off(),
        }
    }

    /// [`ClusterConfig::paper`] on [`SystemConfig::fast`], so unit and
    /// integration tests finish quickly. Protocol semantics are unchanged.
    pub fn fast(seed: u64) -> Self {
        ClusterConfig::paper(seed).with_system(SystemConfig::fast())
    }

    /// Builder-style override of the system configuration.
    pub fn with_system(mut self, system: SystemConfig) -> Self {
        self.system = system;
        self
    }

    /// Builder-style override of the number of initial free peers.
    pub fn with_free_peers(mut self, n: usize) -> Self {
        self.initial_free_peers = n;
        self
    }

    /// Builder-style enabling of durable peer storage.
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Builder-style enabling of causal tracing + metrics.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }
}

/// The outcome of one range query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Items returned.
    pub items: Vec<Item>,
    /// Ring hops the scan took.
    pub hops: u32,
    /// Virtual time from issue to completion.
    pub elapsed: Duration,
    /// Whether the scan reported full interval coverage.
    pub complete: bool,
}

/// A running simulated index.
pub struct Cluster {
    /// The underlying simulator (exposed for advanced scenarios).
    pub sim: Simulator<PeerNode>,
    /// The shared free-peer pool.
    pub pool: FreePool,
    /// The bootstrap peer.
    pub first: PeerId,
    /// What the cluster was built with; every peer added later is built
    /// the same way. The network seed doubles as the base seed of per-peer
    /// storage fault injection, so one harness seed pins the whole run,
    /// durable state included.
    cfg: ClusterConfig,
    next_item_seq: u64,
    /// Memoized ring-membership snapshot, keyed by the simulator's state
    /// version: the harness oracle asks for the member list once per
    /// scheduled op (and `owner_of` once per lookup), and rebuilding it by
    /// scanning every peer each time dominated large runs.
    members_cache: RefCell<Option<(u64, Vec<PeerId>)>>,
}

impl Cluster {
    /// Boots a cluster: one live peer plus `initial_free_peers` free peers.
    pub fn new(cfg: ClusterConfig) -> Self {
        let pool = FreePool::new();
        let mut sim = Simulator::new(cfg.network.clone());
        let first = Self::add_peer(&mut sim, &cfg, |id| {
            PeerNode::first(id, PeerValue(FIRST_VALUE), cfg.system.clone(), pool.clone())
        });
        sim.with_node_ctx(first, |node, ctx| node.start(ctx));
        let free_peers = cfg.initial_free_peers;
        let mut cluster = Cluster {
            sim,
            pool,
            first,
            cfg,
            next_item_seq: 0,
            members_cache: RefCell::new(None),
        };
        for _ in 0..free_peers {
            cluster.add_free_peer();
        }
        cluster
    }

    /// Adds one peer to `sim`: `role` builds it, then it is traced as `cfg`
    /// says and, with durability on, journals to its own seeded
    /// [`pepper_storage::MemVfs`].
    fn add_peer(
        sim: &mut Simulator<PeerNode>,
        cfg: &ClusterConfig,
        role: impl FnOnce(PeerId) -> PeerNode,
    ) -> PeerId {
        sim.add_node(|id| {
            let node = role(id).with_trace(&cfg.trace);
            match cfg.durability {
                Some(d) => node.with_storage(PeerStorage::new_mem(
                    Self::storage_seed_for(cfg.network.seed, id),
                    d.storage,
                )),
                None => node,
            }
        })
    }

    /// Derives the fault-injection seed of one peer's [`pepper_storage::MemVfs`]
    /// from the run seed: deterministic, and distinct across peers.
    fn storage_seed_for(base: u64, id: PeerId) -> u64 {
        base.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(id.raw())
            .rotate_left(17)
            ^ id.raw().wrapping_mul(0xa24b_aed4_963e_e407)
    }

    /// The system configuration the cluster runs with.
    pub fn system(&self) -> &SystemConfig {
        &self.cfg.system
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Adds a new free peer to the system (it joins the ring when a split
    /// needs it).
    pub fn add_free_peer(&mut self) -> PeerId {
        Self::add_peer(&mut self.sim, &self.cfg, |id| {
            PeerNode::free(id, self.cfg.system.clone(), self.pool.clone())
        })
    }

    /// Fail-stops `peer` with the intent of restarting it later: its storage
    /// engine applies the crash faults (un-synced WAL tail torn to a
    /// seeded-random prefix) and [`Cluster::restart_peer`] can rebuild it
    /// from what survived. Returns `false` if the peer was already dead.
    /// Without durable storage this is just a kill.
    pub fn crash_peer(&mut self, peer: PeerId) -> bool {
        if !self.sim.is_alive(peer) {
            return false;
        }
        self.sim.kill(peer);
        true
    }

    /// Restarts a crashed peer from its recovered durable state: decodes the
    /// snapshot, replays the WAL's valid prefix, rebuilds the node as a
    /// *free* peer holding its recovered replicas, revives it on the
    /// simulated network (stale in-flight messages and timers are dropped),
    /// and drives the rejoin handshake — the recovered owned items are
    /// donated to their current owners through the normal routed-insert
    /// path. Returns `None` if durability is off, the peer is alive, or it
    /// never had a storage engine (e.g. already restarted).
    ///
    /// With a broken [`RecoveryMode`] configured, the restarted peer
    /// misbehaves exactly as documented there — the harness red-tests its
    /// oracles against those modes.
    pub fn restart_peer(&mut self, peer: PeerId) -> Option<RestartOutcome> {
        let durability = self.cfg.durability?;
        if self.sim.is_alive(peer) {
            return None;
        }
        // Carry the pre-crash trace buffer into the restarted node so a
        // post-mortem still sees the events leading up to the crash.
        let trace_history = self
            .sim
            .node(peer)
            .map(|n| n.trace_events())
            .unwrap_or_default();
        let storage = self.sim.node_mut(peer)?.take_storage()?;
        let recovered = storage.recover(durability.recovery);
        let outcome = RestartOutcome {
            wal_records_replayed: recovered.wal_records_replayed,
            items_recovered: recovered.items.len(),
            replicas_recovered: recovered.replicas.len(),
            donated: 0,
            torn_tail: recovered.torn_tail,
        };
        let node = PeerNode::restarted(
            peer,
            self.cfg.system.clone(),
            self.pool.clone(),
            storage,
            recovered,
            durability.recovery,
        )
        .with_trace(&self.cfg.trace)
        .with_trace_history(trace_history);
        self.sim.revive(peer, node);
        // Seed the rejoin with a live contact (the lowest-id ring member):
        // a restarted process re-bootstraps from a configured contact list,
        // never from its stale ring state.
        let contact = self
            .with_ring_members(|m| m.iter().copied().find(|p| *p != peer))
            .map(|p| {
                (
                    p,
                    self.sim
                        .node(p)
                        .expect("member exists")
                        .data_store()
                        .value(),
                )
            });
        let donated = self
            .sim
            .with_node_ctx(peer, |node, ctx| node.restart_rejoin(ctx, contact))
            .unwrap_or(0);
        Some(RestartOutcome { donated, ..outcome })
    }

    /// A deterministic digest over every peer's *durable* storage state
    /// (dead peers included — their post-crash image is exactly what a
    /// restart would recover). Folded into the harness final-state hash so
    /// replay determinism pins the VFS contents too. Zero when durability
    /// is off.
    pub fn storage_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (p, node) in self.sim.nodes_iter() {
            if let Some(storage) = node.storage() {
                h ^= p.raw().wrapping_add(0x9e37_79b9);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
                h ^= storage.digest();
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Every peer's buffered trace events (dead peers included — the last
    /// events before a crash are exactly what a post-mortem needs), in
    /// increasing peer-id order. Empty when tracing is off.
    pub fn trace_events(&self) -> Vec<(PeerId, Vec<TraceEvent>)> {
        self.sim
            .nodes_iter()
            .map(|(p, n)| (p, n.trace_events()))
            .filter(|(_, evs)| !evs.is_empty())
            .collect()
    }

    /// The whole-cluster metrics registry: every peer's counters and
    /// histograms absorbed into one. Empty when metrics are off.
    ///
    /// Every `repl.Push` delivered ends one of three ways: it installs
    /// replicas (`repl.ReplicasInstalled`), it is walked and installs
    /// nothing (`repl.push_noop_walk`), or the receiver skips it as a batch
    /// it already holds (`repl.push_skipped`). Skips are most pushes, and a
    /// registry update per skip costs more than the skip saves, so peers
    /// count only the other two and the skips are derived here. All four
    /// counters come from the same per-incarnation registries.
    pub fn metrics(&self) -> Metrics {
        let mut total = Metrics::enabled();
        for (_, node) in self.sim.nodes_iter() {
            total.absorb(node.metrics());
        }
        if self.cfg.trace.metrics {
            let walked = total.counter("repl", "ReplicasInstalled")
                + total.counter("repl", "push_noop_walk");
            let skipped = total
                .counter("repl", "Push")
                .checked_sub(walked)
                .expect("every walked push was counted as delivered");
            total.add("repl", "push_skipped", skipped);
            // Listed even when no push was walked for nothing.
            total.add("repl", "push_noop_walk", 0);
        }
        total
    }

    /// Advances virtual time.
    pub fn run(&mut self, d: Duration) {
        self.sim.run_for(d);
    }

    /// Advances virtual time by whole seconds.
    pub fn run_secs(&mut self, secs: u64) {
        self.run(Duration::from_secs(secs));
    }

    /// Inserts an item with search key `key`, issued at peer `at`.
    pub fn insert_key_at(&mut self, at: PeerId, key: u64) -> ItemId {
        self.next_item_seq += 1;
        let id = ItemId::new(at, self.next_item_seq);
        let item = Item::new(id, SearchKey(key), format!("value-{key}"));
        self.sim
            .with_node_ctx(at, |node, ctx| node.insert_item(ctx, item));
        id
    }

    /// Inserts an item with search key `key` at the bootstrap peer.
    pub fn insert_key(&mut self, key: u64) -> ItemId {
        self.insert_key_at(self.first, key)
    }

    /// Deletes the item with search key `key`, issued at peer `at`.
    pub fn delete_key_at(&mut self, at: PeerId, key: u64) {
        self.sim
            .with_node_ctx(at, |node, ctx| node.delete_item(ctx, SearchKey(key)));
    }

    /// Issues the range query `[lo, hi]` at peer `at`.
    pub fn query_at(&mut self, at: PeerId, lo: u64, hi: u64) -> Option<QueryId> {
        self.sim
            .with_node_ctx(at, |node, ctx| {
                node.range_query(ctx, RangeQuery::closed(lo, hi))
            })
            .flatten()
    }

    /// Runs the simulation until the query completes (or `timeout` of virtual
    /// time has elapsed) and returns its outcome.
    pub fn wait_for_query(
        &mut self,
        at: PeerId,
        id: QueryId,
        timeout: Duration,
    ) -> Option<QueryOutcome> {
        let deadline = self.sim.now() + timeout;
        loop {
            if let Some(outcome) = self.query_outcome(at, id) {
                return Some(outcome);
            }
            if self.sim.now() >= deadline {
                return None;
            }
            self.run(Duration::from_millis(50));
        }
    }

    /// Looks up the outcome of a completed query at its issuer.
    pub fn query_outcome(&self, at: PeerId, id: QueryId) -> Option<QueryOutcome> {
        let node = self.sim.node(at)?;
        node.observations().iter().find_map(|o| match o {
            Observation::QueryCompleted {
                query,
                items,
                hops,
                elapsed,
                complete,
                ..
            } if *query == id => Some(QueryOutcome {
                items: items.clone(),
                hops: *hops,
                elapsed: *elapsed,
                complete: *complete,
            }),
            _ => None,
        })
    }

    /// Runs `f` against the memoized slice of alive ring members (ascending
    /// peer id). The snapshot is rebuilt only when the simulator's state
    /// version moved since it was taken; repeated per-op oracle calls on a
    /// quiescent simulator are O(1) and allocation-free.
    pub fn with_ring_members<R>(&self, f: impl FnOnce(&[PeerId]) -> R) -> R {
        let version = self.sim.state_version();
        // Refresh under a scoped exclusive borrow, then hand `f` a shared
        // borrow: a reentrant membership call inside `f` (same version, so
        // the cache is valid) only needs another shared borrow and cannot
        // trip the RefCell.
        let valid = matches!(&*self.members_cache.borrow(), Some((v, _)) if *v == version);
        if !valid {
            let members: Vec<PeerId> = self
                .sim
                .alive_nodes_iter()
                .filter(|(_, n)| n.is_ring_member())
                .map(|(p, _)| p)
                .collect();
            *self.members_cache.borrow_mut() = Some((version, members));
        }
        let cache = self.members_cache.borrow();
        f(&cache.as_ref().expect("cache just filled").1)
    }

    /// All currently alive peers that are ring members.
    pub fn ring_members(&self) -> Vec<PeerId> {
        self.with_ring_members(|m| m.to_vec())
    }

    /// The alive ring member whose Data Store range contains `key`.
    pub fn owner_of(&self, key: u64) -> Option<PeerId> {
        self.with_ring_members(|members| {
            members.iter().copied().find(|p| {
                self.sim
                    .node(*p)
                    .map(|n| n.data_store().range().contains(key))
                    .unwrap_or(false)
            })
        })
    }

    /// Total number of items stored across alive peers.
    pub fn total_items(&self) -> usize {
        self.sim
            .alive_nodes_iter()
            .map(|(_, n)| n.item_count())
            .sum()
    }

    /// Item counts per alive ring member.
    pub fn items_per_member(&self) -> Vec<usize> {
        self.ring_members()
            .iter()
            .map(|p| self.sim.node(*p).unwrap().item_count())
            .collect()
    }

    /// The set of all search keys currently stored at alive peers.
    pub fn stored_keys(&self) -> BTreeSet<u64> {
        let mut keys = BTreeSet::new();
        for (_, node) in self.sim.alive_nodes_iter() {
            for item in node.data_store().local_items() {
                keys.insert(item.skv.raw());
            }
        }
        keys
    }

    /// Drains every peer's observations, tagged with the peer id.
    pub fn drain_observations(&mut self) -> Vec<(PeerId, Observation)> {
        let mut out = Vec::new();
        for (p, node) in self.sim.nodes_iter_mut() {
            for o in node.take_observations() {
                out.push((p, o));
            }
        }
        out
    }

    /// Ring snapshots of every peer (for the consistency / connectivity
    /// oracles).
    pub fn ring_snapshots(&self) -> Vec<RingSnapshot> {
        self.sim
            .nodes_iter()
            .map(|(p, n)| RingSnapshot::of(n.ring(), self.sim.is_alive(p)))
            .collect()
    }

    /// Checks the two global ring invariants. Returns
    /// `(consistent successor pointers, connected)`.
    pub fn check_ring(&self) -> (bool, bool) {
        let snaps = self.ring_snapshots();
        (
            check_consistent_successor_pointers(&snaps).is_consistent(),
            check_connectivity(&snaps).is_consistent(),
        )
    }

    /// Data Store snapshots of every peer, tagged with liveness (for the
    /// range-partition / item-conservation oracles).
    pub fn datastore_snapshots(&self) -> Vec<(bool, DsSnapshot)> {
        self.sim
            .nodes_iter()
            .map(|(p, n)| (self.sim.is_alive(p), n.data_store().snapshot()))
            .collect()
    }

    /// The mapped values of every replica held per alive peer (for the
    /// replication oracle).
    pub fn replica_holdings(&self) -> BTreeMap<PeerId, BTreeSet<u64>> {
        self.sim
            .alive_nodes_iter()
            .map(|(p, n)| {
                let keys = n
                    .replication()
                    .replicas()
                    .into_iter()
                    .map(|(m, _)| m)
                    .collect();
                (p, keys)
            })
            .collect()
    }

    /// Asks `peer` to leave the ring voluntarily (offer its range to its
    /// predecessor). Returns `true` if the offer was issued; completion is
    /// asynchronous and best-effort (the predecessor may decline).
    pub fn leave_peer(&mut self, peer: PeerId) -> bool {
        self.sim
            .with_node_ctx(peer, |node, ctx| node.request_leave(ctx))
            .unwrap_or(false)
    }

    /// Kills a random alive ring member not listed in `exclude`.
    pub fn kill_random_member(&mut self, rng: &mut impl Rng, exclude: &[PeerId]) -> Option<PeerId> {
        let candidates: Vec<PeerId> = self
            .ring_members()
            .into_iter()
            .filter(|p| !exclude.contains(p))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let victim = candidates[rng.gen_range(0..candidates.len())];
        self.sim.kill(victim);
        Some(victim)
    }

    /// Direct access to a peer node.
    pub fn node(&self, id: PeerId) -> Option<&PeerNode> {
        self.sim.node(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_and_basic_workload() {
        let mut cluster = Cluster::new(ClusterConfig::fast(3).with_free_peers(2));
        assert_eq!(cluster.ring_members().len(), 1);
        assert_eq!(cluster.pool.len(), 2);
        for k in 1..=8u64 {
            cluster.insert_key(k * 1_000_000);
            cluster.run(Duration::from_millis(50));
        }
        cluster.run_secs(4);
        assert_eq!(cluster.total_items(), 8);
        assert!(cluster.ring_members().len() >= 2);
        let (consistent, connected) = cluster.check_ring();
        assert!(consistent && connected);
        // Every stored key is owned by exactly the peer whose range covers it.
        for k in cluster.stored_keys() {
            assert!(cluster.owner_of(k).is_some());
        }
    }

    #[test]
    fn query_roundtrip_through_cluster_helper() {
        let mut cluster = Cluster::new(ClusterConfig::fast(5).with_free_peers(2));
        let keys: Vec<u64> = (1..=10).map(|k| k * 10_000_000).collect();
        for &k in &keys {
            cluster.insert_key(k);
            cluster.run(Duration::from_millis(40));
        }
        cluster.run_secs(4);
        let issuer = cluster.first;
        let id = cluster.query_at(issuer, 20_000_000, 80_000_000).unwrap();
        let outcome = cluster
            .wait_for_query(issuer, id, Duration::from_secs(10))
            .expect("query completes");
        let got: Vec<u64> = outcome.items.iter().map(|i| i.skv.raw()).collect();
        let expected: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|k| (20_000_000..=80_000_000).contains(k))
            .collect();
        assert_eq!(got, expected);
        assert!(outcome.complete);
    }

    #[test]
    fn memoized_ring_members_track_membership_changes() {
        let mut cluster = Cluster::new(ClusterConfig::fast(11).with_free_peers(3));
        let recompute = |c: &Cluster| -> Vec<PeerId> {
            c.sim
                .alive_nodes_iter()
                .filter(|(_, n)| n.is_ring_member())
                .map(|(p, _)| p)
                .collect()
        };
        assert_eq!(cluster.ring_members(), recompute(&cluster));
        // Repeated calls on a quiescent simulator serve the cached snapshot.
        assert_eq!(cluster.ring_members(), cluster.ring_members());
        // Drive growth (splits pull free peers in) and a kill; the cache
        // must track both kinds of membership change.
        for k in 1..=10u64 {
            cluster.insert_key(k * 1_000_000);
            cluster.run(Duration::from_millis(50));
        }
        cluster.run_secs(4);
        let members = cluster.ring_members();
        assert_eq!(members, recompute(&cluster));
        assert!(members.len() >= 2);
        let victim = *members.last().unwrap();
        cluster.sim.kill(victim);
        assert_eq!(cluster.ring_members(), recompute(&cluster));
        assert!(!cluster.ring_members().contains(&victim));
        // Reentrant membership lookups inside the closure are safe.
        let nested = cluster.with_ring_members(|members| {
            let inner = cluster.ring_members();
            assert_eq!(inner, members);
            let _ = cluster.owner_of(1_000_000); // reentrant owner lookup
            !members.is_empty()
        });
        assert!(nested);
    }

    fn durable_cluster(seed: u64, frees: usize) -> Cluster {
        Cluster::new(
            ClusterConfig::fast(seed)
                .with_free_peers(frees)
                .with_durability(DurabilityConfig::default()),
        )
    }

    /// Grows a durable cluster to at least two ring members and settles it.
    fn grown_durable_cluster(seed: u64) -> (Cluster, Vec<u64>) {
        let mut cluster = durable_cluster(seed, 3);
        let keys: Vec<u64> = (1..=10).map(|k| k * 10_000_000).collect();
        for &k in &keys {
            cluster.insert_key(k);
            cluster.run(Duration::from_millis(50));
        }
        cluster.run_secs(4);
        assert!(cluster.ring_members().len() >= 2);
        (cluster, keys)
    }

    #[test]
    fn crash_restart_recovers_acked_items_from_durable_state() {
        let (mut cluster, keys) = grown_durable_cluster(31);
        // Crash a non-bootstrap member that stores items.
        let victim = *cluster
            .ring_members()
            .iter()
            .find(|p| **p != cluster.first && cluster.node(**p).unwrap().item_count() > 0)
            .expect("a storing member besides the bootstrap peer");
        assert!(cluster.crash_peer(victim));
        assert!(!cluster.crash_peer(victim), "double crash is a no-op");
        cluster.run_secs(1);
        let outcome = cluster.restart_peer(victim).expect("restart succeeds");
        assert!(outcome.items_recovered > 0, "{outcome:?}");
        assert_eq!(outcome.donated, outcome.items_recovered);
        assert!(
            cluster.restart_peer(victim).is_none(),
            "double restart is refused (storage already taken)"
        );
        // The restarted peer is a free peer again — never a ring member
        // serving its stale range.
        assert!(!cluster.node(victim).unwrap().is_ring_member());
        cluster.run_secs(6);
        // No acked item is lost: everything survives on the live owners.
        let stored = cluster.stored_keys();
        for k in keys {
            assert!(stored.contains(&k), "key {k} lost across crash-restart");
        }
        let (consistent, connected) = cluster.check_ring();
        assert!(consistent && connected);
    }

    #[test]
    fn push_outcome_counters_are_in_the_registry_and_survive_a_restart() {
        let mut cluster = Cluster::new(
            ClusterConfig::fast(31)
                .with_free_peers(3)
                .with_durability(DurabilityConfig::default())
                .with_trace(TraceConfig {
                    metrics: true,
                    ..TraceConfig::off()
                }),
        );
        for k in 1..=10u64 {
            cluster.insert_key(k * 10_000_000);
            cluster.run(Duration::from_millis(50));
        }
        cluster.run_secs(4);
        // Every push delivered is skipped, walked for nothing or installs
        // something, counted in one registry per peer incarnation. Returns
        // how many were skipped.
        let skipped = |c: &Cluster| {
            let m = c.metrics();
            let counter = |name| m.counter("repl", name);
            let outcomes =
                counter("push_skipped") + counter("push_noop_walk") + counter("ReplicasInstalled");
            assert_eq!(outcomes, counter("Push"), "{}", m.render());
            counter("push_skipped")
        };
        let before = skipped(&cluster);
        assert!(before > 0, "settled refresh rounds are skipped");
        let victim = *cluster
            .ring_members()
            .iter()
            .find(|p| **p != cluster.first)
            .expect("a member besides the bootstrap peer");
        cluster.crash_peer(victim);
        cluster.run_secs(1);
        cluster.restart_peer(victim).expect("restart succeeds");
        // The rebuilt peer starts a fresh registry: its past pushes leave
        // every counter together.
        let after_restart = skipped(&cluster);
        assert!(after_restart < before, "{after_restart} vs {before}");
        cluster.run_secs(4);
        assert!(skipped(&cluster) > after_restart, "skips resume");
        // With metrics off the registry stays empty.
        let (quiet, _) = grown_durable_cluster(31);
        assert_eq!(quiet.metrics().counters().count(), 0);
    }

    #[test]
    fn restart_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let (mut cluster, _) = grown_durable_cluster(seed);
            let victim = *cluster
                .ring_members()
                .iter()
                .find(|p| **p != cluster.first)
                .unwrap();
            cluster.crash_peer(victim);
            cluster.run_secs(1);
            let outcome = cluster.restart_peer(victim).unwrap();
            cluster.run_secs(5);
            (outcome, cluster.stored_keys(), cluster.storage_digest())
        };
        assert_eq!(run(77), run(77));
    }

    #[test]
    fn restart_without_durability_is_refused() {
        let mut cluster = Cluster::new(ClusterConfig::fast(5).with_free_peers(1));
        assert_eq!(cluster.storage_digest(), cluster.storage_digest());
        let victim = cluster.first;
        cluster.crash_peer(victim);
        assert!(cluster.restart_peer(victim).is_none());
    }

    #[test]
    fn deletions_and_observations_drain() {
        let mut cluster = Cluster::new(ClusterConfig::fast(7).with_free_peers(1));
        for k in 1..=6u64 {
            cluster.insert_key(k * 1_000_000);
            cluster.run(Duration::from_millis(40));
        }
        cluster.run_secs(2);
        cluster.delete_key_at(cluster.first, 1_000_000);
        cluster.run_secs(2);
        assert_eq!(cluster.total_items(), 5);
        let obs = cluster.drain_observations();
        assert!(obs
            .iter()
            .any(|(_, o)| matches!(o, Observation::DeleteAcked { found: true, .. })));
        // Draining twice yields nothing new.
        assert!(cluster.drain_observations().is_empty());
    }
}
