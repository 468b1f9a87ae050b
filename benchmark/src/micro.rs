//! Micro drivers: each layer's public entry points, timed from outside.
//!
//! Each driver clones one layer's state out of a small settled cluster and
//! feeds it the message cycle that dominates the layer's traffic, using the
//! layer's own replies as the next inputs. The result is host nanoseconds
//! per `ProtocolLayer::handle` call — the per-layer unit cost of the cost
//! model in `report.rs`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pepper_datastore::{DataStoreState, DsMsg, QueryId};
use pepper_net::{
    Context, Effect, Effects, LayerCtx, NetworkConfig, Node, ProtocolLayer, SimTime, Simulator,
};
use pepper_replication::{ReplMsg, ReplicationManager};
use pepper_ring::{RingMsg, RingState};
use pepper_router::{HierarchicalRouter, RouterMsg};
use pepper_sim::cluster::{Cluster, ClusterConfig};
use pepper_storage::{DurableImage, PeerStorage, RecoveryMode, StorageConfig};
use pepper_types::{Item, ItemId, KeyInterval, PeerId, SearchKey};

use crate::rng::Rng;
use crate::workloads::DOMAIN;

/// Host cost per unit of each layer's work.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    /// ns per event of a simulator driving nodes that do nothing.
    pub net_null_ns_per_event: f64,
    /// ns per ring `handle` (ping + stabilization cycle).
    pub ring_handle_ns: f64,
    /// ns per router `handle` (maintenance cycle).
    pub router_handle_ns: f64,
    /// ns per datastore `handle` of a mid-scan hop (step, ack, guard timer).
    pub ds_scan_step_ns: f64,
    /// ns per datastore `handle` of an item insert / delete.
    pub ds_insert_ns: f64,
    /// ns per replication `handle` (refresh tick, pushes sent and received).
    pub repl_push_ns: f64,
    /// ns per synced WAL append (`log_item_insert`).
    pub storage_append_ns: f64,
    /// µs per snapshot write of a typical peer image.
    pub storage_snapshot_us: f64,
    /// ns per WAL record replayed by `recover`, short log.
    pub storage_replay_ns_short: f64,
    /// ns per WAL record replayed by `recover`, log ten times as long.
    pub storage_replay_ns_long: f64,
}

/// Handles `msg` and returns what the layer emitted.
fn handle<L: ProtocolLayer>(
    layer: &mut L,
    ctx: LayerCtx,
    from: PeerId,
    msg: L::Msg,
) -> Vec<Effect<L::Msg>> {
    let mut fx = Effects::new();
    layer.handle(ctx, from, msg, &mut fx);
    black_box(layer.drain_events());
    fx.drain()
}

fn sent<M: Clone>(effects: &[Effect<M>], pick: impl Fn(&M) -> bool) -> Option<(PeerId, M)> {
    effects.iter().find_map(|e| match e {
        Effect::Send { to, msg } if pick(msg) => Some((*to, msg.clone())),
        _ => None,
    })
}

fn armed<M: Clone>(effects: &[Effect<M>], pick: impl Fn(&M) -> bool) -> Option<M> {
    effects.iter().find_map(|e| match e {
        Effect::Timer { msg, .. } if pick(msg) => Some(msg.clone()),
        _ => None,
    })
}

/// Runs `cycle` (which returns how many `handle` calls it made) until
/// `budget` is spent; returns ns per call.
fn ns_per_call(budget: Duration, mut cycle: impl FnMut(u64) -> u64) -> f64 {
    let started = Instant::now();
    let (mut calls, mut i) = (0u64, 0u64);
    while started.elapsed() < budget {
        for _ in 0..256 {
            calls += cycle(i);
            i += 1;
        }
    }
    started.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// A small settled ring whose members' layer states the drivers clone.
struct Prepared {
    cluster: Cluster,
    /// A member with a predecessor and a successor distinct from itself.
    me: PeerId,
    pred: PeerId,
    succ: PeerId,
}

fn prepare(seed: u64) -> Prepared {
    let mut cluster = Cluster::new(ClusterConfig::paper(seed).with_free_peers(64));
    let mut rng = Rng::new(seed);
    for _ in 0..150 {
        let at = cluster.with_ring_members(|m| m[rng.index(m.len())]);
        cluster.insert_key_at(at, rng.below(DOMAIN));
        cluster.run(Duration::from_millis(100));
    }
    cluster.run_secs(80);
    cluster.drain_observations();
    let members = cluster.ring_members();
    let me = *members
        .iter()
        .find(|p| {
            let node = cluster.node(**p).expect("member exists");
            let ds = node.data_store();
            node.ring().pred().is_some()
                && node.ring().succ_list().len() >= 2
                && !ds.range().wraps()
                && (4..9).contains(&ds.item_count())
                && node.router().populated_levels() >= 3
        })
        .expect("a settled mid-ring member");
    let ring = cluster.node(me).expect("member exists").ring();
    let pred = ring.pred().expect("checked").0;
    let succ = ring.succ_list()[0].peer;
    Prepared {
        cluster,
        me,
        pred,
        succ,
    }
}

impl Prepared {
    fn ctx(&self, at: PeerId, tick: u64) -> LayerCtx {
        LayerCtx::new(
            at,
            self.cluster.now() + Duration::from_secs(2) * tick as u32,
        )
    }

    /// Ping tick → ping → reply → guard timer, stabilize tick → request →
    /// response, plus the predecessor's request: the eight ring calls a
    /// peer and its successor make per period.
    fn ring(&self, budget: Duration) -> f64 {
        let node = |p| self.cluster.node(p).expect("member exists");
        let mut me: RingState = node(self.me).ring().clone();
        let mut succ: RingState = node(self.succ).ring().clone();
        let pred_value = me.pred().expect("checked").1;
        ns_per_call(budget, |i| {
            let (ctx, sctx) = (self.ctx(self.me, i), self.ctx(self.succ, i));
            let fx = handle(&mut me, ctx, self.me, RingMsg::PingTick);
            let (target, ping) =
                sent(&fx, |m| matches!(m, RingMsg::Ping { .. })).expect("tick pings");
            let guard =
                armed(&fx, |m| matches!(m, RingMsg::PingTimeout { .. })).expect("tick arms guard");
            let fx = handle(&mut succ, sctx, self.me, ping);
            let (_, reply) =
                sent(&fx, |m| matches!(m, RingMsg::PingReply { .. })).expect("ping answered");
            black_box(handle(&mut me, ctx, target, reply));
            black_box(handle(&mut me, ctx, self.me, guard));
            let fx = handle(&mut me, ctx, self.me, RingMsg::StabilizeTick);
            let (to, request) =
                sent(&fx, |m| matches!(m, RingMsg::StabRequest { .. })).expect("tick stabilizes");
            let fx = handle(&mut succ, sctx, self.me, request);
            let (_, response) =
                sent(&fx, |m| matches!(m, RingMsg::StabResponse { .. })).expect("request answered");
            black_box(handle(&mut me, ctx, to, response));
            let from_pred = RingMsg::StabRequest {
                from_value: pred_value,
            };
            black_box(handle(&mut me, ctx, self.pred, from_pred));
            8
        })
    }

    /// Maintenance tick, then every `GetEntry` it sent answered and the
    /// answer stored.
    fn router(&self, budget: Duration) -> f64 {
        let mut me: HierarchicalRouter = self
            .cluster
            .node(self.me)
            .expect("member exists")
            .router()
            .clone();
        ns_per_call(budget, |i| {
            let ctx = self.ctx(self.me, i);
            let fx = handle(&mut me, ctx, self.me, RouterMsg::MaintainTick);
            let mut calls = 1;
            for e in fx {
                let Effect::Send { to, msg } = e else {
                    continue;
                };
                // The asked peer's shortcut table has the shape of ours.
                let fx = handle(&mut me, ctx, self.pred, msg);
                let (_, reply) = sent(&fx, |m| matches!(m, RouterMsg::EntryReply { .. }))
                    .expect("GetEntry answered");
                black_box(handle(&mut me, ctx, to, reply));
                calls += 2;
            }
            calls
        })
    }

    fn data_store(&self) -> DataStoreState {
        self.cluster
            .node(self.me)
            .expect("member exists")
            .data_store()
            .clone()
    }

    /// A scan passing through: lock + report + forward, the successor's
    /// acknowledgement, and the (always firing) forward guard.
    fn scan_step(&self, budget: Duration) -> f64 {
        let mut me = self.data_store();
        let range = me.range();
        let interval =
            KeyInterval::new(range.low().raw() + 1, DOMAIN).expect("range below the domain's end");
        ns_per_call(budget, |i| {
            let ctx = self.ctx(self.me, i);
            let query = QueryId {
                origin: self.pred,
                seq: i,
            };
            let step = DsMsg::ScanStep {
                query,
                interval,
                prev: Some(self.pred),
                hop: 1,
            };
            let fx = handle(&mut me, ctx, self.pred, step);
            let guard = armed(&fx, |m| matches!(m, DsMsg::ScanForwardTimeout { .. }))
                .expect("step forwarded");
            black_box(handle(
                &mut me,
                ctx,
                self.succ,
                DsMsg::ScanStepAck { query, hop: 2 },
            ));
            black_box(handle(&mut me, ctx, self.me, guard));
            3
        })
    }

    /// An item stored and deleted again (the store stays at its size).
    fn insert(&self, budget: Duration) -> f64 {
        let mut me = self.data_store();
        let key = me.range().high().raw() - 1;
        ns_per_call(budget, |i| {
            let ctx = self.ctx(self.me, i);
            let item = Item::new(
                ItemId::new(self.pred, i),
                SearchKey(key),
                "value".to_string(),
            );
            let store = DsMsg::InsertItem {
                item,
                reply_to: self.pred,
            };
            black_box(handle(&mut me, ctx, self.pred, store));
            let delete = DsMsg::DeleteItem {
                mapped: key,
                reply_to: self.pred,
            };
            black_box(handle(&mut me, ctx, self.pred, delete));
            2
        })
    }

    /// Refresh tick, the pushes it leads to, and each push received.
    fn replication(&self, budget: Duration) -> f64 {
        let node = self.cluster.node(self.me).expect("member exists");
        let mut me: ReplicationManager = node.replication().clone();
        let items = node.data_store().local_items_mapped();
        let successors: Vec<PeerId> = node.ring().succ_list().iter().map(|e| e.peer).collect();
        ns_per_call(budget, |i| {
            let ctx = self.ctx(self.me, i);
            black_box(handle(&mut me, ctx, self.me, ReplMsg::RefreshTick));
            let mut fx = Effects::new();
            me.push_to_successors(ctx, &items, &successors, &mut fx);
            let mut calls = 1;
            for e in fx.drain() {
                if let Effect::Send { msg, .. } = e {
                    // Our own pushes stand in for the predecessors' pushes.
                    black_box(handle(&mut me, ctx, self.pred, msg));
                    calls += 1;
                }
            }
            calls
        })
    }

    /// The image a typical member snapshots: its items plus its replicas.
    fn image(&self) -> DurableImage {
        let node = self.cluster.node(self.me).expect("member exists");
        DurableImage {
            live: true,
            range: node.data_store().range(),
            items: node.data_store().local_items_mapped(),
            replicas: node.replication().replicas(),
        }
    }
}

fn wal_only() -> PeerStorage {
    PeerStorage::new_mem(
        7,
        StorageConfig {
            snapshot_after_records: usize::MAX,
        },
    )
}

fn append(storage: &mut PeerStorage, i: u64) {
    let item = Item::new(
        ItemId::new(PeerId(1), i),
        SearchKey(i),
        format!("value-{i}"),
    );
    storage.log_item_insert(i, &item);
}

fn storage_append_ns(budget: Duration) -> f64 {
    // A fresh log every 4096 appends keeps the in-memory file small, as the
    // periodic snapshot does in the program.
    let mut storage = wal_only();
    ns_per_call(budget, |i| {
        if i % 4096 == 0 {
            storage = wal_only();
        }
        append(&mut storage, i);
        1
    })
}

fn storage_snapshot_us(image: &DurableImage, budget: Duration) -> f64 {
    let mut storage = wal_only();
    ns_per_call(budget, |_| {
        storage.write_snapshot(black_box(image));
        1
    }) / 1e3
}

fn storage_replay_ns(records: u64, budget: Duration) -> f64 {
    let mut storage = wal_only();
    for i in 0..records {
        append(&mut storage, i);
    }
    let started = Instant::now();
    let mut replayed = 0;
    while started.elapsed() < budget {
        replayed += black_box(storage.recover(RecoveryMode::Clean)).wal_records_replayed;
    }
    started.elapsed().as_nanos() as f64 / replayed.max(1) as f64
}

/// A node that keeps the simulator busy and does nothing itself: every timer
/// re-arms itself and sends one message to the next node.
struct NullNode {
    next: PeerId,
}

impl Node for NullNode {
    type Msg = bool;

    fn on_message(&mut self, ctx: &mut Context<'_, bool>, _from: PeerId, is_timer: bool) {
        if is_timer {
            ctx.set_timer(Duration::from_secs(1), true);
            ctx.send(self.next, false);
        }
    }
}

fn net_null_ns_per_event(budget: Duration) -> f64 {
    const NODES: u64 = 1024;
    let mut sim: Simulator<NullNode> = Simulator::new(NetworkConfig::lan(1));
    let ids: Vec<PeerId> = (0..NODES)
        .map(|_| sim.add_node(|_| NullNode { next: PeerId(0) }))
        .collect();
    for (i, id) in ids.iter().enumerate() {
        let next = ids[(i + 1) % ids.len()];
        sim.with_node_ctx(*id, |node, ctx| {
            node.next = next;
            // Spread the timers over the period, as protocol timers are.
            ctx.set_timer(Duration::from_micros(977 * i as u64), true);
        });
    }
    sim.run_until(SimTime::from_secs(2));
    let before = sim.stats().events_processed;
    let started = Instant::now();
    while started.elapsed() < budget {
        sim.run_for(Duration::from_secs(8));
    }
    let events = sim.stats().events_processed - before;
    started.elapsed().as_nanos() as f64 / events.max(1) as f64
}

/// Runs every micro driver for about `budget` each.
pub fn run_all(seed: u64, budget: Duration) -> LayerCosts {
    let p = prepare(seed);
    LayerCosts {
        net_null_ns_per_event: net_null_ns_per_event(budget),
        ring_handle_ns: p.ring(budget),
        router_handle_ns: p.router(budget),
        ds_scan_step_ns: p.scan_step(budget),
        ds_insert_ns: p.insert(budget),
        repl_push_ns: p.replication(budget),
        storage_append_ns: storage_append_ns(budget),
        storage_snapshot_us: storage_snapshot_us(&p.image(), budget),
        storage_replay_ns_short: storage_replay_ns(2_000, budget),
        storage_replay_ns_long: storage_replay_ns(20_000, budget),
    }
}
