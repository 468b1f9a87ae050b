//! The composed peer: ring + data store + replication + router + index API.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use pepper_datastore::{DataStoreState, DsEvent, DsMsg, DsStatus, QueryId};
use pepper_net::{Context, Effects, LayerCtx, LayerSlot, Node, SimTime};
use pepper_replication::{Batch, BatchStamp, ReplEvent, ReplicationManager};
use pepper_ring::{EntryState, RingEvent, RingState};
use pepper_router::HierarchicalRouter;
use pepper_storage::{DurableImage, PeerStorage, RecoveredState, RecoveryMode};
use pepper_trace::{Metrics, TraceConfig, TraceEvent, Tracer};
use pepper_types::{
    CircularRange, Item, ItemId, PeerId, PeerValue, Protocol, RangeQuery, SearchKey, SystemConfig,
};

use crate::free_pool::FreePool;
use crate::messages::{PeerMsg, RoutePayload};
use crate::observations::Observation;

/// Maximum number of routing hops before a request bounces back to its
/// issuer for a retry.
pub const MAX_ROUTE_HOPS: u32 = 32;

/// Maximum number of times an item insert/delete is re-routed before it is
/// reported as failed.
pub const MAX_ITEM_ATTEMPTS: u32 = 8;

/// Maximum number of re-routes for a *donation* insert (a restarted peer
/// handing recovered items back to their live owners), and the pause between
/// attempts. A donation may race the multi-second failure-detection +
/// range-takeover window that follows the donor's own crash — while the
/// crashed peer's old range is unowned every routed insert into it bounces —
/// so donations retry patiently where a client insert would give up: the
/// recovered item's WAL copy is gone from the live ring's point of view, and
/// dropping the donation would lose an acknowledged item.
pub const MAX_DONATION_ATTEMPTS: u32 = 40;
/// Pause between donation re-routes (see [`MAX_DONATION_ATTEMPTS`]).
pub const DONATION_RETRY_PAUSE: Duration = Duration::from_millis(250);

/// How long a hop taken from a router slot waits for its
/// [`PeerMsg::RouteAck`] before the target is presumed gone and the request
/// takes the next-best hop. A round trip takes under a millisecond.
const ROUTE_GUARD: Duration = Duration::from_millis(500);

/// Period of the snapshot tick (WAL compaction). A peer without a storage
/// engine ticks too, and persists nothing; not a paper parameter.
const SNAPSHOT_PERIOD: Duration = Duration::from_secs(10);

#[derive(Debug, Clone)]
struct PendingItemInsert {
    item: Item,
    mapped: u64,
    attempts: u32,
    started: SimTime,
    /// Whether this is a restart-recovery donation (longer retry budget).
    donation: bool,
}

#[derive(Debug, Clone)]
struct PendingItemDelete {
    attempts: u32,
}

/// A hop taken from a router shortcut, awaiting its [`PeerMsg::RouteAck`]:
/// the shortcut it used, and the request, to re-forward if the ack never
/// comes.
#[derive(Debug, Clone)]
struct PendingHop {
    peer: PeerId,
    value: PeerValue,
    target: u64,
    payload: RoutePayload,
    hops: u32,
}

/// A full PEPPER peer: the four framework layers composed behind the index
/// API, runnable on the simulated network, driving its storage engine.
#[derive(Debug)]
pub struct PeerNode {
    id: PeerId,
    cfg: SystemConfig,
    ring: LayerSlot<RingState, PeerMsg>,
    ds: LayerSlot<DataStoreState, PeerMsg>,
    repl: LayerSlot<ReplicationManager, PeerMsg>,
    router: LayerSlot<HierarchicalRouter, PeerMsg>,
    /// Whether this incarnation armed its [`PeerMsg::SnapshotTick`].
    snapshot_tick_armed: bool,
    /// The durable-storage engine, if this peer persists its state (the
    /// harness attaches one to every peer; plain experiments run without).
    storage: Option<PeerStorage>,
    /// How this peer treats recovered durable state after a restart (the
    /// broken variants exist only for oracle red tests).
    recovery_mode: RecoveryMode,
    /// Items recovered from durable storage, awaiting donation to their
    /// current owners through [`PeerNode::restart_rejoin`].
    recovered_donation: Vec<(u64, Item)>,
    /// The replica batch the last refresh round built, and its stamp. Reused
    /// for as long as the Data Store's item set stays what it was built from.
    built_batch: Option<(BatchStamp, Batch)>,
    pool: FreePool,
    /// When the in-flight merge-give (this peer giving up its range) started.
    merge_started: Option<SimTime>,
    pending_inserts: HashMap<ItemId, PendingItemInsert>,
    pending_deletes: HashMap<u64, PendingItemDelete>,
    /// Sequence number of the last acked hop this peer sent.
    hop_seq: u64,
    pending_hops: HashMap<u64, PendingHop>,
    observations: Vec<Observation>,
    /// Causal trace recorder (off by default; see [`PeerNode::with_trace`]).
    trace: Tracer,
    /// Per-layer metrics registry (disabled by default).
    metrics: Metrics,
}

impl PeerNode {
    /// Creates the very first peer of a new index (live, owns everything).
    pub fn first(id: PeerId, value: PeerValue, cfg: SystemConfig, pool: FreePool) -> Self {
        let ring = RingState::new_first(id, value, cfg.clone());
        let ds = DataStoreState::new_first(id, value, cfg.clone());
        PeerNode::new(id, cfg, pool, ring, ds)
    }

    /// Creates a free peer and registers it in the free pool. It enters the
    /// ring when some overflowing peer splits with it.
    pub fn free(id: PeerId, cfg: SystemConfig, pool: FreePool) -> Self {
        pool.release(id);
        PeerNode::free_unpooled(id, cfg, pool)
    }

    /// A free peer that is not in `pool` yet: [`PeerNode::restarted`]
    /// re-admits it explicitly once reconciliation is underway.
    fn free_unpooled(id: PeerId, cfg: SystemConfig, pool: FreePool) -> Self {
        let ring = RingState::new_free(id, cfg.clone());
        let ds = DataStoreState::new_free(id, cfg.clone());
        PeerNode::new(id, cfg, pool, ring, ds)
    }

    fn new(
        id: PeerId,
        cfg: SystemConfig,
        pool: FreePool,
        ring: RingState,
        ds: DataStoreState,
    ) -> Self {
        PeerNode {
            id,
            ring: LayerSlot::new(ring, PeerMsg::Ring),
            ds: LayerSlot::new(ds, PeerMsg::Ds),
            repl: LayerSlot::new(ReplicationManager::new(id, cfg.clone()), PeerMsg::Repl),
            router: LayerSlot::new(HierarchicalRouter::new(id, cfg.clone()), PeerMsg::Router),
            snapshot_tick_armed: false,
            storage: None,
            recovery_mode: RecoveryMode::Clean,
            recovered_donation: Vec::new(),
            built_batch: None,
            pool,
            cfg,
            merge_started: None,
            pending_inserts: HashMap::new(),
            pending_deletes: HashMap::new(),
            hop_seq: 0,
            pending_hops: HashMap::new(),
            observations: Vec::new(),
            trace: Tracer::off(),
            metrics: Metrics::disabled(),
        }
    }

    /// Attaches a durable-storage engine and journals the current state as
    /// the initial snapshot. Builder-style, used at node construction.
    pub fn with_storage(mut self, mut storage: PeerStorage) -> Self {
        storage.write_snapshot(&self.durable_image());
        self.storage = Some(storage);
        self
    }

    /// Configures tracing and metrics for this peer. Builder-style, used at
    /// node construction; with [`TraceConfig::off`] (the default) every
    /// record site reduces to an inlined discriminant check.
    pub fn with_trace(mut self, cfg: &TraceConfig) -> Self {
        self.trace = if cfg.tracing {
            Tracer::ring(cfg.ring_capacity)
        } else {
            Tracer::off()
        };
        self.metrics = if cfg.metrics {
            Metrics::enabled()
        } else {
            Metrics::disabled()
        };
        self
    }

    /// Seeds this peer's tracer with events recorded by its pre-crash
    /// incarnation, so a post-mortem of a restarted peer still covers the
    /// events leading up to the crash. No-op when tracing is off.
    pub fn with_trace_history(mut self, events: Vec<TraceEvent>) -> Self {
        self.trace.preload(events);
        self
    }

    /// Rebuilds a peer from its recovered durable state after a crash (the
    /// same peer id restarting on the same host). The peer comes back as a
    /// **free** peer regardless of what it owned before the crash: a stale
    /// range must never be served as owned. Its recovered items are parked
    /// for donation to their current owners ([`PeerNode::restart_rejoin`]),
    /// its recovered replica holdings are installed as replicas (soft state
    /// the live ring refreshes anyway), and the storage engine keeps the
    /// *pre-crash* durable image until the donation outcome is journaled by
    /// normal operation — crashing again mid-donation just re-donates.
    ///
    /// With the deliberately broken [`RecoveryMode::ServeStaleRange`] the
    /// recovered range and items are installed as live owned state with no
    /// handshake — the misbehavior the harness's `recovered-range` oracle
    /// exists to catch.
    pub fn restarted(
        id: PeerId,
        cfg: SystemConfig,
        pool: FreePool,
        storage: PeerStorage,
        recovered: RecoveredState,
        mode: RecoveryMode,
    ) -> Self {
        let mut node = PeerNode::free_unpooled(id, cfg, pool);
        node.storage = Some(storage);
        node.recovery_mode = mode;
        node.repl.install_replicas(recovered.replicas);
        if recovered.live {
            match mode {
                RecoveryMode::ServeStaleRange => {
                    node.ds
                        .install_recovered_stale(recovered.range, recovered.items);
                }
                RecoveryMode::Clean | RecoveryMode::SkipWalTail => {
                    node.recovered_donation = recovered.items;
                }
            }
        }
        node
    }

    // ------------------------------------------------------------------
    // accessors used by experiments and oracles
    // ------------------------------------------------------------------

    /// This peer's id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// The ring layer (read-only).
    pub fn ring(&self) -> &RingState {
        &self.ring
    }

    /// The data store layer (read-only).
    pub fn data_store(&self) -> &DataStoreState {
        &self.ds
    }

    /// The replication manager (read-only).
    pub fn replication(&self) -> &ReplicationManager {
        &self.repl
    }

    /// The content router (read-only).
    pub fn router(&self) -> &HierarchicalRouter {
        &self.router
    }

    /// Whether this peer currently participates in the ring.
    pub fn is_ring_member(&self) -> bool {
        self.ring.is_member()
    }

    /// Number of items in this peer's data store.
    pub fn item_count(&self) -> usize {
        self.ds.item_count()
    }

    /// The durable-storage engine, if one is attached (read-only: digests,
    /// WAL counters).
    pub fn storage(&self) -> Option<&PeerStorage> {
        self.storage.as_ref()
    }

    /// Detaches and returns the storage engine — the cluster pulls it out of
    /// a crashed node to recover and rebuild the peer.
    pub fn take_storage(&mut self) -> Option<PeerStorage> {
        self.storage.take()
    }

    /// Observations recorded so far (not drained).
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// Drains and returns the recorded observations.
    pub fn take_observations(&mut self) -> Vec<Observation> {
        std::mem::take(&mut self.observations)
    }

    /// The per-layer metrics registry (empty and inert unless enabled via
    /// [`PeerNode::with_trace`]).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Snapshot of the retained trace events, oldest first (empty when
    /// tracing is off).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.snapshot()
    }

    // ------------------------------------------------------------------
    // index API (invoked by the harness through `Simulator::with_node_ctx`)
    // ------------------------------------------------------------------

    /// Starts the peer's periodic protocols. Required for the first peer of
    /// an index; joining peers start automatically when they join.
    pub fn start(&mut self, ctx: &mut Context<'_, PeerMsg>) {
        let now = ctx.now();
        self.trace.set_cid(ctx.cid());
        self.note(now, "api", "Start", String::new);
        self.start_layers(now, ctx.effects());
    }

    /// `insertItem`: store `item` in the index (routed to the responsible
    /// peer; acknowledged asynchronously via [`Observation::InsertAcked`]).
    pub fn insert_item(&mut self, ctx: &mut Context<'_, PeerMsg>, item: Item) {
        let now = ctx.now();
        let mapped = self.cfg.key_map.map(item.skv).raw();
        self.trace.set_cid(ctx.cid());
        self.note(now, "api", "InsertItem", || format!("mapped={mapped}"));
        self.pending_inserts.insert(
            item.id,
            PendingItemInsert {
                item: item.clone(),
                mapped,
                attempts: 0,
                started: now,
                donation: false,
            },
        );
        self.handle_route(
            now,
            mapped,
            RoutePayload::Insert {
                item,
                reply_to: self.id,
            },
            0,
            ctx.effects(),
        );
    }

    /// `deleteItem`: remove the item with search key `key` from the index.
    pub fn delete_item(&mut self, ctx: &mut Context<'_, PeerMsg>, key: SearchKey) {
        let now = ctx.now();
        let mapped = self.cfg.key_map.map(key).raw();
        self.trace.set_cid(ctx.cid());
        self.note(now, "api", "DeleteItem", || format!("mapped={mapped}"));
        self.pending_deletes
            .insert(mapped, PendingItemDelete { attempts: 0 });
        self.handle_route(
            now,
            mapped,
            RoutePayload::Delete {
                mapped,
                reply_to: self.id,
            },
            0,
            ctx.effects(),
        );
    }

    /// `rangeQuery` / `findItems`: evaluate a range query. The result is
    /// delivered asynchronously as an [`Observation::QueryCompleted`] at this
    /// peer. Returns the query id, or `None` for an empty query.
    pub fn range_query(
        &mut self,
        ctx: &mut Context<'_, PeerMsg>,
        query: RangeQuery,
    ) -> Option<QueryId> {
        let now = ctx.now();
        self.trace.set_cid(ctx.cid());
        self.note(now, "api", "RangeQuery", String::new);
        let out = ctx.effects();
        let lctx = LayerCtx::new(self.id, now);
        let (registered, ds_events) = self
            .ds
            .with(out, |ds, fx| ds.register_query(lctx, query, fx));
        self.process_ds_events(now, ds_events, out);
        registered.map(|(id, interval)| {
            let pepper = self.cfg.protocol == Protocol::Pepper;
            let payload = RoutePayload::ScanStart {
                query: id,
                interval,
                pepper,
            };
            self.handle_route(now, interval.lo(), payload, 0, out);
            id
        })
    }

    /// Voluntarily leave the ring: offer this peer's range to its
    /// predecessor. The hand-off runs the full availability protections
    /// (extra-hop replication, PEPPER ring leave) once the predecessor has
    /// locked itself and acknowledged. Returns `false` when the peer cannot
    /// start a leave right now (free peer, sole ring member, rebalancing, or
    /// an offer already in flight).
    pub fn request_leave(&mut self, ctx: &mut Context<'_, PeerMsg>) -> bool {
        let now = ctx.now();
        self.trace.set_cid(ctx.cid());
        self.note(now, "api", "RequestLeave", String::new);
        let out = ctx.effects();
        match self.ring.pred() {
            Some((pred, _)) if pred != self.id => {
                let (ok, ds_events) = self
                    .ds
                    .with(out, |ds, fx| ds.begin_voluntary_leave(pred, fx));
                self.process_ds_events(now, ds_events, out);
                ok
            }
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // internal plumbing
    // ------------------------------------------------------------------

    fn layer_ctx(&self, now: SimTime) -> LayerCtx {
        LayerCtx::new(self.id, now)
    }

    /// The single instrumentation point: records one trace event under the
    /// current correlation id and bumps the matching `(layer, kind)`
    /// counter. `detail` is only built when tracing is on.
    #[inline]
    fn note(
        &mut self,
        now: SimTime,
        layer: &'static str,
        kind: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        self.metrics.bump(layer, kind);
        self.trace
            .record(now.as_nanos(), self.id.raw(), layer, kind, detail);
    }

    /// Starts every layer's periodic timers through the uniform
    /// [`ProtocolLayer`] boundary (idempotent per layer), then arms the
    /// snapshot tick once per incarnation.
    fn start_layers(&mut self, now: SimTime, out: &mut Effects<PeerMsg>) {
        let ctx = self.layer_ctx(now);
        let ring_events = self.ring.start_timers(ctx, out);
        self.process_ring_events(now, ring_events, out);
        let ds_events = self.ds.start_timers(ctx, out);
        self.process_ds_events(now, ds_events, out);
        let repl_events = self.repl.start_timers(ctx, out);
        self.process_repl_events(now, repl_events, out);
        // RouterEvent is uninhabited: nothing to process.
        self.router.start_timers(ctx, out);
        if !self.snapshot_tick_armed {
            self.snapshot_tick_armed = true;
            // Staggered per peer so a cluster does not snapshot in lockstep.
            let stagger = Duration::from_micros((self.id.raw() % 83) * 270);
            out.timer(SNAPSHOT_PERIOD / 2 + stagger, PeerMsg::SnapshotTick);
        }
    }

    /// The currently `JOINED` successors of `ring`, in list order (the
    /// snapshot the replication layer works against).
    fn joined_successors(ring: &RingState) -> impl Iterator<Item = PeerId> + '_ {
        ring.succ_list()
            .iter()
            .filter(|e| e.state == EntryState::Joined)
            .map(|e| e.peer)
    }

    /// One replication refresh round of the CFS scheme, fed with the
    /// cross-layer snapshot only the composed peer can take: the Data
    /// Store's items, cloned into a batch all successors share — once per
    /// change of the item set, not once per round.
    fn push_replicas(&mut self, now: SimTime, out: &mut Effects<PeerMsg>) {
        let store_version = self.ds.items_version();
        let (stamp, batch) = match &self.built_batch {
            Some((stamp, batch)) if stamp.store_version == store_version => {
                (*stamp, Arc::clone(batch))
            }
            _ => {
                let stamp = BatchStamp {
                    built_at: now,
                    store_version,
                };
                let batch: Batch = self
                    .ds
                    .items_mapped()
                    .map(|(mapped, item)| (mapped, item.clone()))
                    .collect();
                self.built_batch = Some((stamp, Arc::clone(&batch)));
                (stamp, batch)
            }
        };
        let ((), repl_events) = self.repl.with(out, |repl, fx| {
            repl.push_batch(batch, Some(stamp), Self::joined_successors(&self.ring), fx)
        });
        self.process_repl_events(now, repl_events, out);
    }

    /// Unwraps the unified message and hands it to the owning layer through
    /// its [`LayerSlot`]. The arms only route; all effect-mapping lives in
    /// [`LayerSlot::with`], and every layer's events come back through the
    /// same typed drain.
    fn dispatch(&mut self, now: SimTime, from: PeerId, msg: PeerMsg, out: &mut Effects<PeerMsg>) {
        let ctx = self.layer_ctx(now);
        match msg {
            PeerMsg::Ring(m) => {
                let events = self.ring.handle(ctx, from, m, out);
                self.process_ring_events(now, events, out);
            }
            PeerMsg::Ds(m) => {
                let events = self.ds.handle(ctx, from, m, out);
                self.process_ds_events(now, events, out);
            }
            PeerMsg::Repl(m) => {
                let events = self.repl.handle(ctx, from, m, out);
                self.process_repl_events(now, events, out);
            }
            PeerMsg::Router(m) => {
                // RouterEvent is uninhabited: nothing to process.
                self.router.handle(ctx, from, m, out);
            }
            PeerMsg::Route {
                target,
                payload,
                hops,
                ack,
            } => {
                if let Some(seq) = ack {
                    let at = (self.ds.status() == DsStatus::Live).then(|| self.ring.value());
                    out.send(from, PeerMsg::RouteAck { seq, at });
                }
                self.handle_route(now, target, payload, hops, out)
            }
            PeerMsg::RouteAck { seq, at } => self.on_route_ack(seq, at),
            PeerMsg::RouteGuard { seq } => self.on_route_guard(now, seq, out),
            PeerMsg::PredTakeover {
                peer,
                value,
                low_at_arm,
            } => self.on_pred_takeover(now, peer, value, low_at_arm, out),
            PeerMsg::SnapshotTick => self.on_snapshot_tick(now, out),
        }
    }

    /// Re-validated predecessor takeover (armed by a `NewPredecessor` ring
    /// event, see the comment there): extend this peer's range down to the
    /// predecessor's value and revive the replicas that fall inside.
    fn on_pred_takeover(
        &mut self,
        now: SimTime,
        peer: PeerId,
        value: PeerValue,
        low_at_arm: PeerValue,
        out: &mut Effects<PeerMsg>,
    ) {
        // The predecessor (or its value) changed again since the timer was
        // armed: a newer event carries its own timer, or the gap was
        // absorbed by a merge grant. Either way this takeover is stale.
        if self.ring.pred() != Some((peer, value)) {
            return;
        }
        if self.ds.status() != DsStatus::Live || self.ds.range().is_empty() {
            return;
        }
        // This peer's own low end moved since the timer was armed: the gap
        // was resolved by an explicit hand-off (e.g. the low range was
        // redistributed away) — extending now would re-acquire a range that
        // deliberately changed hands.
        if self.ds.range().low() != low_at_arm {
            return;
        }
        let (acquired, ds_events) = self.ds.with(out, |ds, _fx| ds.extend_low_to(value));
        // Revive BEFORE processing the extend's events: the RangeChanged
        // handler prunes the replica store of everything the extended range
        // now owns — which is exactly the local copies the revival must
        // take. (With successors alive the RecoverRequest round-trip masked
        // this; a sole survivor has nobody to recover from, so the ordering
        // is load-bearing.)
        if let Some(acquired) = acquired {
            self.note(now, "index", "TakeoverExtend", || format!("{acquired:?}"));
            self.revive_range(now, acquired, out);
        }
        self.process_ds_events(now, ds_events, out);
    }

    /// Revives a range this peer just became responsible for after its
    /// previous owner vanished (predecessor takeover or a bridged merge
    /// grant): install everything the local replica store holds, then ask
    /// the successors for their copies too — this peer's own replica store
    /// can be incomplete, e.g. when it joined moments before the failure,
    /// while farther successors of the failed peer still hold replicas.
    /// Replies are installed through the same range- and duplicate-checked
    /// path ([`DataStoreState::install_revived`]).
    fn revive_range(&mut self, now: SimTime, acquired: CircularRange, out: &mut Effects<PeerMsg>) {
        let revived = self.repl.take_replicas_in(&acquired);
        let ((), ds_events) = self.ds.with(out, |ds, _fx| ds.install_revived(revived));
        self.process_ds_events(now, ds_events, out);
        for succ in Self::joined_successors(&self.ring) {
            out.send(
                succ,
                PeerMsg::Repl(pepper_replication::ReplMsg::RecoverRequest { range: acquired }),
            );
        }
    }

    // ---- ring event glue ------------------------------------------------

    fn process_ring_events(
        &mut self,
        now: SimTime,
        events: Vec<RingEvent>,
        out: &mut Effects<PeerMsg>,
    ) {
        for event in events {
            self.note(now, "ring", event.tag(), String::new);
            match event {
                RingEvent::Joined { value, .. } => {
                    self.ds.became_ring_member(value);
                    self.start_layers(now, out);
                    self.observations.push(Observation::JoinedRing);
                }
                RingEvent::InsertSuccComplete { new_peer, elapsed } => {
                    self.observations
                        .push(Observation::InsertSuccCompleted { new_peer, elapsed });
                    let (_, ds_events) = self.ds.with(out, |ds, fx| ds.send_handoff(new_peer, fx));
                    self.process_ds_events(now, ds_events, out);
                }
                RingEvent::InsertSuccAborted { new_peer } => {
                    let (cancelled, ds_events) =
                        self.ds.with(out, |ds, fx| ds.cancel_split(new_peer, fx));
                    if cancelled {
                        self.pool.release(new_peer);
                    }
                    self.process_ds_events(now, ds_events, out);
                }
                RingEvent::NewSuccessor { peer, value } => {
                    self.ds.set_successor(peer, value);
                    self.router.set_successor(peer, value);
                }
                RingEvent::NewPredecessor { peer, value } => {
                    // A predecessor change has two causes with opposite data
                    // flows: the old predecessor *failed* (this peer must
                    // take over the range in between and revive replicas) or
                    // it *departed* through a merge/leave (that same range is
                    // being granted to the departing peer's predecessor —
                    // extending here would double-own it and resurrect its
                    // items from replicas). The two are locally
                    // indistinguishable when the pointer changes, so the
                    // takeover is delayed and re-validated: it only runs if
                    // the same predecessor is still in place after a few
                    // stabilization rounds and the gap is still unowned. In
                    // the departure case the absorbing peer's value reaches
                    // this peer within a round and cancels the takeover; if
                    // the departing peer failed mid-leave, the grant never
                    // lands, the gap persists, and the takeover proceeds.
                    let range = self.ds.range();
                    let gap_hypothesized = self.ds.status() == DsStatus::Live
                        && !range.is_empty()
                        && !range.is_full()
                        && range.low() != value;
                    if gap_hypothesized {
                        out.timer(
                            self.cfg.stabilization_period * 3,
                            PeerMsg::PredTakeover {
                                peer,
                                value,
                                low_at_arm: range.low(),
                            },
                        );
                    }
                }
                RingEvent::LeaveComplete { elapsed } => {
                    self.observations
                        .push(Observation::LeaveCompleted { elapsed });
                    // If this leave is part of a merge-give, hand the range
                    // and items to the predecessor now.
                    let (_, ds_events) = self.ds.with(out, |ds, fx| ds.send_merge_grant(fx));
                    self.process_ds_events(now, ds_events, out);
                }
                RingEvent::SuccessorFailed { peer } => {
                    self.router.forget_peer(peer);
                    // Unwedge any Data Store transfer waiting on the dead
                    // peer (a split's free peer, merge reply, leave grant).
                    // A split's free peer is NOT returned to the pool —
                    // `on_killed` already removed it there.
                    let ctx = self.layer_ctx(now);
                    let ((), ds_events) =
                        self.ds.with(out, |ds, fx| ds.on_peer_failed(ctx, peer, fx));
                    self.process_ds_events(now, ds_events, out);
                }
            }
        }
    }

    // ---- data store event glue --------------------------------------------

    fn process_ds_events(
        &mut self,
        now: SimTime,
        events: Vec<DsEvent>,
        out: &mut Effects<PeerMsg>,
    ) {
        // Bulk transfers (hand-offs, grants, redistributions, departures)
        // emit one ItemStored/ItemRemoved per moved item followed by a
        // range-level event whose handler writes a full snapshot — which
        // truncates the WAL. Journaling those per-item records would pay a
        // synced append per item only to discard it in the same batch (on a
        // real-file VFS: one fsync per moved item), so per-item WAL writes
        // are skipped whenever this batch snapshots anyway. The store is
        // already fully updated when the batch is processed, so the
        // snapshot covers every item of the batch regardless of order.
        let snapshot_in_batch = self.storage.is_some()
            && events
                .iter()
                .any(|e| matches!(e, DsEvent::RangeChanged { .. } | DsEvent::BecameFree));
        for event in events {
            self.note(now, "ds", event.tag(), String::new);
            match event {
                DsEvent::SplitNeeded { .. } => self.start_split(now, out),
                DsEvent::MergeNeeded { .. } => {
                    let succ = self
                        .ring
                        .stabilized_succ()
                        .or_else(|| self.ring.best_succ());
                    let ((), ds_events) = self.ds.with(out, |ds, fx| match succ {
                        Some(e) if e.peer != ds.id() => ds.send_merge_request(e.peer, fx),
                        _ => ds.cancel_rebalance(fx),
                    });
                    self.process_ds_events(now, ds_events, out);
                }
                DsEvent::MergeGiveStarted { to } => {
                    self.merge_started = Some(now);
                    let ctx = self.layer_ctx(now);
                    // Item availability protection: replicate everything this
                    // peer stores one additional hop before leaving.
                    let own_items = self.ds.local_items_mapped();
                    let succs: Vec<PeerId> = Self::joined_successors(&self.ring).collect();
                    let (_, repl_events) = self.repl.with(out, |repl, fx| {
                        repl.replicate_additional_hop(ctx, &own_items, &succs, fx)
                    });
                    self.process_repl_events(now, repl_events, out);
                    // System availability protection: leave the ring properly
                    // before departing.
                    let (left, ring_events) = self.ring.with(out, |ring, fx| ring.leave(ctx, fx));
                    if !left {
                        // Cannot leave right now (e.g. an insert is in
                        // flight); decline the merge so the requester retries.
                        self.merge_started = None;
                        self.ds.cancel_merge_give();
                        out.send(to, PeerMsg::Ds(DsMsg::MergeDeclined));
                    }
                    self.process_ring_events(now, ring_events, out);
                }
                DsEvent::RangeChanged { range, value, grew } => {
                    self.ring.set_value(value);
                    self.repl.prune_owned(&range);
                    // Range changes move whole item sets at once (hand-offs,
                    // grants, takeovers): a fresh snapshot is the only
                    // durable encoding that cannot diverge from the store.
                    self.persist_snapshot();
                    // Replicate-on-receive: a range change that brought items
                    // in (merge grant, hand-off, redistribution, revival)
                    // leaves them unreplicated until the next periodic
                    // refresh — a window in which a single fail-stop loses
                    // them. Push a round immediately instead of waiting.
                    // Shrinks (the giving side of a transfer) hold nothing
                    // new and skip the push.
                    if grew {
                        self.push_replicas(now, out);
                    }
                }
                DsEvent::BecameFree => {
                    if let Some(started) = self.merge_started.take() {
                        self.observations.push(Observation::MergeCompleted {
                            elapsed: now - started,
                        });
                    }
                    self.observations.push(Observation::BecameFree);
                    self.ring.depart();
                    self.router.clear();
                    self.pool.release(self.id);
                    // Durably record that this peer owns nothing anymore: a
                    // restart must not resurrect the given-away range.
                    self.persist_snapshot();
                }
                DsEvent::RangeBridged { gap } => {
                    self.revive_range(now, gap, out);
                }
                DsEvent::AbsorbedSuccessor { granter } => {
                    self.router.forget_peer(granter);
                    // The granter has left the ring: purge its entries now
                    // rather than waiting for ping/stabilization decay — if
                    // it rejoins elsewhere first, the stale entries would
                    // look alive again at its old position. The granter's
                    // successor is announced in this same handler, so the
                    // next scan through this peer is not forwarded to it.
                    let ((), ring_events) = self
                        .ring
                        .with(out, |ring, _fx| ring.note_departed(now, granter));
                    self.process_ring_events(now, ring_events, out);
                }
                DsEvent::ItemStored { item } => {
                    // Journal-then-ack: this WAL append (synced) happens in
                    // the same handler invocation that queues the ack
                    // effect, so an acknowledged insert is durable by
                    // construction. (Skipped when this batch writes a full
                    // snapshot — see `snapshot_in_batch`.)
                    let mapped = self.cfg.key_map.map(item.skv).raw();
                    if !snapshot_in_batch {
                        if let Some(storage) = self.storage.as_mut() {
                            storage.log_item_insert(mapped, &item);
                            self.metrics.bump("storage", "wal_append");
                        }
                    }
                }
                DsEvent::ItemRemoved { mapped, .. } => {
                    if !snapshot_in_batch {
                        if let Some(storage) = self.storage.as_mut() {
                            storage.log_item_delete(mapped);
                            self.metrics.bump("storage", "wal_append");
                        }
                    }
                }
                DsEvent::QueryRejected { query } => {
                    // Re-route after a pause: rejections mean the routing
                    // state is stale (a peer departed or a range moved); the
                    // ring repairs itself within a ping/stabilization round.
                    if let Some((interval, pepper)) = self.ds.query_info(query) {
                        out.timer(
                            Duration::from_millis(500),
                            PeerMsg::Route {
                                target: interval.lo(),
                                payload: RoutePayload::ScanStart {
                                    query,
                                    interval,
                                    pepper,
                                },
                                hops: 0,
                                ack: None,
                            },
                        );
                    }
                }
                DsEvent::QueryCompleted {
                    query,
                    items,
                    hops,
                    elapsed,
                    complete,
                } => {
                    self.metrics.observe("ds", "scan_hops", hops as u64);
                    self.metrics
                        .observe("ds", "scan_elapsed_nanos", elapsed.as_nanos() as u64);
                    self.metrics.bump(
                        "ds",
                        if complete {
                            "scan_complete"
                        } else {
                            "scan_incomplete"
                        },
                    );
                    self.observations.push(Observation::QueryCompleted {
                        query,
                        items,
                        hops,
                        elapsed,
                        complete,
                        pepper: self.cfg.protocol == Protocol::Pepper,
                    });
                }
                DsEvent::InsertAcked { item } => {
                    if let Some(pending) = self.pending_inserts.remove(&item) {
                        self.observations.push(Observation::InsertAcked {
                            item,
                            elapsed: now - pending.started,
                        });
                    }
                }
                DsEvent::DeleteAcked { mapped, found } => {
                    self.pending_deletes.remove(&mapped);
                    self.observations
                        .push(Observation::DeleteAcked { mapped, found });
                }
                DsEvent::Rerouted { mapped } => self.retry_item_op(now, mapped, out),
            }
        }
    }

    // ---- replication event glue -----------------------------------------

    fn process_repl_events(
        &mut self,
        now: SimTime,
        events: Vec<ReplEvent>,
        out: &mut Effects<PeerMsg>,
    ) {
        for event in events {
            self.note(now, "repl", event.tag(), String::new);
            match event {
                ReplEvent::RefreshDue => self.push_replicas(now, out),
                ReplEvent::Recovered { items } => {
                    // Recovery replies after a range takeover: the Data
                    // Store keeps only what falls in its range and is not
                    // already stored.
                    let ((), ds_events) = self.ds.with(out, |ds, _fx| ds.install_revived(items));
                    self.process_ds_events(now, ds_events, out);
                }
                ReplEvent::ReplicasInstalled { items } => {
                    // Journal the replica delta lazily (appended, not
                    // synced): replicas are soft state the live owners
                    // re-push every refresh round, and the un-synced tail
                    // is what gives the crash injector real torn writes.
                    if let Some(storage) = self.storage.as_mut() {
                        storage.log_replica_puts(&items);
                        self.metrics
                            .add("storage", "wal_replica_puts", items.len() as u64);
                    }
                }
            }
        }
    }

    // ---- storage ------------------------------------------------------------

    /// The periodic snapshot tick: re-arm it, then compact the WAL, but only
    /// rewrite the image once enough records accumulated to make it
    /// worthwhile.
    fn on_snapshot_tick(&mut self, now: SimTime, out: &mut Effects<PeerMsg>) {
        out.timer(SNAPSHOT_PERIOD, PeerMsg::SnapshotTick);
        self.note(now, "storage", "SnapshotDue", String::new);
        if self.storage.as_ref().is_some_and(|s| s.snapshot_due()) {
            self.persist_snapshot();
        }
    }

    /// The full durable image of this peer right now.
    fn durable_image(&self) -> DurableImage {
        DurableImage {
            live: self.ds.status() == DsStatus::Live,
            range: self.ds.range(),
            items: self.ds.local_items_mapped(),
            replicas: self.repl.replicas(),
        }
    }

    /// Atomically rewrites the snapshot (and truncates the WAL), if a
    /// storage engine is attached.
    fn persist_snapshot(&mut self) {
        if self.storage.is_none() {
            return;
        }
        let image = self.durable_image();
        if let Some(storage) = self.storage.as_mut() {
            storage.write_snapshot(&image);
            self.metrics.bump("storage", "snapshot_write");
        }
    }

    /// The rejoin handshake of a restarted peer: reconcile recovered stale
    /// state against the live ring. The recovered *owned* items are donated
    /// to their current owners through the normal routed-insert path (with
    /// `contact` seeding the successor hint so routing can make progress
    /// from a blank ring state), and the peer re-enters the free pool — it
    /// never serves its stale range. Returns the number of donated items.
    ///
    /// Under the broken [`RecoveryMode::ServeStaleRange`] this does nothing:
    /// the stale range is already (incorrectly) installed and the oracles
    /// are expected to object.
    pub fn restart_rejoin(
        &mut self,
        ctx: &mut Context<'_, PeerMsg>,
        contact: Option<(PeerId, PeerValue)>,
    ) -> usize {
        if self.recovery_mode == RecoveryMode::ServeStaleRange {
            return 0;
        }
        let now = ctx.now();
        self.trace.set_cid(ctx.cid());
        let donation_len = self.recovered_donation.len();
        self.note(now, "api", "RestartRejoin", || {
            format!("donating={donation_len}")
        });
        let out = ctx.effects();
        if let Some((peer, value)) = contact {
            self.ds.set_successor(peer, value);
        }
        let donation = std::mem::take(&mut self.recovered_donation);
        let donated = donation.len();
        for (mapped, item) in donation {
            self.pending_inserts.insert(
                item.id,
                PendingItemInsert {
                    item: item.clone(),
                    mapped,
                    attempts: 0,
                    started: now,
                    donation: true,
                },
            );
            self.handle_route(
                now,
                mapped,
                RoutePayload::Insert {
                    item,
                    reply_to: self.id,
                },
                0,
                out,
            );
        }
        self.pool.readmit(self.id);
        donated
    }

    /// Starts a split: draw a free peer, plan the split, insert the free peer
    /// into the ring as our successor; the hand-off follows once the ring
    /// reports completion.
    fn start_split(&mut self, now: SimTime, out: &mut Effects<PeerMsg>) {
        let Some(free) = self.pool.acquire() else {
            let ((), ds_events) = self.ds.with(out, |ds, fx| ds.cancel_rebalance(fx));
            self.process_ds_events(now, ds_events, out);
            return;
        };
        let Some(new_value) = self.ds.begin_split(free) else {
            self.pool.release(free);
            return;
        };
        // This peer's ring value (and Data Store range) only moves down to
        // the split boundary once the hand-off completes — advertising it
        // earlier would let the old successor extend its range over items
        // this peer still owns. A refused insert reports
        // `InsertSuccAborted`, which cancels the split.
        let ctx = self.layer_ctx(now);
        let ((), ring_events) = self
            .ring
            .with(out, |ring, fx| ring.insert_succ(ctx, free, new_value, fx));
        self.process_ring_events(now, ring_events, out);
    }

    /// Re-routes an item insert/delete that bounced off a non-responsible
    /// peer, giving up after [`MAX_ITEM_ATTEMPTS`].
    fn retry_item_op(&mut self, _now: SimTime, mapped: u64, out: &mut Effects<PeerMsg>) {
        // The lowest id of the key's pending inserts: a choice that does not
        // depend on the map's per-process iteration order.
        let insert_id = self
            .pending_inserts
            .iter()
            .filter(|(_, p)| p.mapped == mapped)
            .map(|(id, _)| *id)
            .min();
        if let Some(id) = insert_id {
            let retry = {
                let pending = self.pending_inserts.get_mut(&id).expect("present");
                pending.attempts += 1;
                let budget = if pending.donation {
                    MAX_DONATION_ATTEMPTS
                } else {
                    MAX_ITEM_ATTEMPTS
                };
                if pending.attempts > budget {
                    None
                } else {
                    Some((pending.item.clone(), pending.donation))
                }
            };
            match retry {
                Some((item, donation)) => {
                    // Retry after a pause: client-insert bounces usually mean
                    // a split or merge is mid-flight and settle within a few
                    // round trips; donation bounces can be waiting out a
                    // whole failure-detection + takeover window.
                    let pause = if donation {
                        DONATION_RETRY_PAUSE
                    } else {
                        Duration::from_millis(25)
                    };
                    out.timer(
                        pause,
                        PeerMsg::Route {
                            target: mapped,
                            payload: RoutePayload::Insert {
                                item,
                                reply_to: self.id,
                            },
                            hops: 0,
                            ack: None,
                        },
                    );
                }
                None => {
                    self.pending_inserts.remove(&id);
                    self.observations
                        .push(Observation::InsertFailed { item: id });
                }
            }
            return;
        }
        if let Some(pending) = self.pending_deletes.get_mut(&mapped) {
            pending.attempts += 1;
            if pending.attempts > MAX_ITEM_ATTEMPTS {
                self.pending_deletes.remove(&mapped);
            } else {
                out.timer(
                    Duration::from_millis(25),
                    PeerMsg::Route {
                        target: mapped,
                        payload: RoutePayload::Delete {
                            mapped,
                            reply_to: self.id,
                        },
                        hops: 0,
                        ack: None,
                    },
                );
            }
        }
    }

    // ---- routing -----------------------------------------------------------

    fn deliver_locally(&mut self, now: SimTime, payload: RoutePayload, out: &mut Effects<PeerMsg>) {
        let msg = match payload {
            RoutePayload::Insert { item, reply_to } => DsMsg::InsertItem { item, reply_to },
            RoutePayload::Delete { mapped, reply_to } => DsMsg::DeleteItem { mapped, reply_to },
            RoutePayload::ScanStart {
                query,
                interval,
                pepper,
            } => {
                if pepper {
                    DsMsg::ScanStep {
                        query,
                        interval,
                        prev: None,
                        hop: 0,
                    }
                } else {
                    DsMsg::NaiveScanStep {
                        query,
                        interval,
                        hop: 0,
                    }
                }
            }
        };
        let ctx = self.layer_ctx(now);
        let events = self.ds.handle(ctx, self.id, msg, out);
        self.process_ds_events(now, events, out);
    }

    fn bounce(&mut self, payload: RoutePayload, target: u64, out: &mut Effects<PeerMsg>) {
        match payload {
            RoutePayload::Insert { reply_to, .. } | RoutePayload::Delete { reply_to, .. } => {
                out.send(
                    reply_to,
                    PeerMsg::Ds(DsMsg::NotResponsible { mapped: target }),
                );
            }
            RoutePayload::ScanStart { query, .. } => {
                out.send(query.origin, PeerMsg::Ds(DsMsg::ScanRejected { query }));
            }
        }
    }

    fn handle_route(
        &mut self,
        now: SimTime,
        target: u64,
        payload: RoutePayload,
        hops: u32,
        out: &mut Effects<PeerMsg>,
    ) {
        if self.ds.status() == DsStatus::Live && self.ds.range().contains(target) {
            self.deliver_locally(now, payload, out);
            return;
        }
        if hops >= MAX_ROUTE_HOPS {
            self.bounce(payload, target, out);
            return;
        }
        // Prefer the content router's shortcuts, and have the hop acked:
        // a shortcut may be stale (see `on_route_ack`). Fall back to the
        // ring successor so routing makes progress even before the router
        // has learned any shortcut (e.g. right after a split).
        if let Some((peer, value)) = self.router.next_hop(self.ring.value(), PeerValue(target)) {
            self.hop_seq += 1;
            let seq = self.hop_seq;
            self.pending_hops.insert(
                seq,
                PendingHop {
                    peer,
                    value,
                    target,
                    payload: payload.clone(),
                    hops,
                },
            );
            out.send(
                peer,
                PeerMsg::Route {
                    target,
                    payload,
                    hops: hops + 1,
                    ack: Some(seq),
                },
            );
            out.timer(ROUTE_GUARD, PeerMsg::RouteGuard { seq });
            return;
        }
        let fallback = self
            .ring
            .best_succ()
            .map(|e| (e.peer, e.value))
            .or_else(|| self.ds.successor());
        match fallback {
            Some((next, _)) if next != self.id => {
                out.send(
                    next,
                    PeerMsg::Route {
                        target,
                        payload,
                        hops: hops + 1,
                        ack: None,
                    },
                );
            }
            _ => self.bounce(payload, target, out),
        }
    }

    /// A hop taken from a router slot arrived: repair the shortcut if the
    /// receiver has moved to another ring value, or forget it if the
    /// receiver owns nothing anymore. An unknown `seq` (already settled by
    /// its guard) is ignored.
    fn on_route_ack(&mut self, seq: u64, at: Option<PeerValue>) {
        let Some(hop) = self.pending_hops.remove(&seq) else {
            return;
        };
        match at {
            None => self.router.forget_peer(hop.peer),
            Some(value) if value != hop.value => self.router.correct(hop.peer, value),
            Some(_) => {}
        }
    }

    /// A hop's guard fired. If its ack has not arrived, the target is
    /// presumed dead: forget it and re-forward the request through the next
    /// best hop, which the router now chooses without it.
    fn on_route_guard(&mut self, now: SimTime, seq: u64, out: &mut Effects<PeerMsg>) {
        let Some(hop) = self.pending_hops.remove(&seq) else {
            return;
        };
        self.router.forget_peer(hop.peer);
        self.handle_route(now, hop.target, hop.payload, hop.hops, out);
    }
}

impl Node for PeerNode {
    type Msg = PeerMsg;

    fn on_message(&mut self, ctx: &mut Context<'_, PeerMsg>, from: PeerId, msg: PeerMsg) {
        let now = ctx.now();
        // Adopt the delivery envelope's correlation id before anything is
        // recorded: every event this handler (and the layers below it)
        // records is attributed to the root cause that led here.
        self.trace.set_cid(ctx.cid());
        if self.metrics.is_enabled() {
            // Hop acks and guards are counted under their own tags but not
            // as `net` deliveries: the benchmark's per-layer tag tables
            // (`benchmark/src/report.rs`) do not list them yet, and its
            // self-test requires every `net` delivery to carry a listed tag.
            if !matches!(msg, PeerMsg::RouteAck { .. } | PeerMsg::RouteGuard { .. }) {
                self.metrics.bump(
                    "net",
                    if ctx.is_timer() {
                        "timer_fired"
                    } else {
                        "msg_delivered"
                    },
                );
            }
            self.metrics.bump(msg.layer_tag(), msg.tag());
        }
        if self.trace.enabled() {
            let timer = ctx.is_timer();
            let sender = from.raw();
            self.trace.record(
                now.as_nanos(),
                self.id.raw(),
                msg.layer_tag(),
                msg.tag(),
                || {
                    if timer {
                        "timer".to_string()
                    } else {
                        format!("from=p{sender}")
                    }
                },
            );
        }
        self.dispatch(now, from, msg, ctx.effects());
    }

    fn on_killed(&mut self) {
        self.pool.remove(self.id);
        // A fail-stop is also a storage crash: the un-synced WAL tail is
        // torn down to a seeded-random prefix. What survives is exactly
        // what a later restart recovers.
        if let Some(storage) = self.storage.as_mut() {
            storage.crash();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepper_net::{NetworkConfig, Simulator};
    use pepper_ring::consistency::{
        check_connectivity, check_consistent_successor_pointers, RingSnapshot,
    };

    /// Builds a cluster: one first peer plus `free` free peers, all running
    /// with `cfg`.
    fn cluster(
        cfg: &SystemConfig,
        free: usize,
        seed: u64,
    ) -> (Simulator<PeerNode>, FreePool, PeerId) {
        let pool = FreePool::new();
        let mut sim = Simulator::new(NetworkConfig::lan(seed));
        let cfg_first = cfg.clone();
        let pool_first = pool.clone();
        let first = sim.add_node(move |id| {
            PeerNode::first(id, PeerValue(u64::MAX / 2), cfg_first, pool_first)
        });
        for _ in 0..free {
            let cfg_i = cfg.clone();
            let pool_i = pool.clone();
            sim.add_node(move |id| PeerNode::free(id, cfg_i, pool_i));
        }
        sim.with_node_ctx(first, |node, ctx| node.start(ctx));
        (sim, pool, first)
    }

    fn insert_keys(sim: &mut Simulator<PeerNode>, at: PeerId, keys: impl IntoIterator<Item = u64>) {
        for k in keys {
            let item = Item::new(ItemId::new(at, k), SearchKey(k), format!("payload-{k}"));
            sim.with_node_ctx(at, |node, ctx| node.insert_item(ctx, item))
                .expect("issuing peer alive");
            sim.run_for(Duration::from_millis(30));
        }
    }

    fn total_items(sim: &Simulator<PeerNode>) -> usize {
        sim.alive_nodes_iter()
            .map(|(_, node)| node.item_count())
            .sum()
    }

    fn ring_members(sim: &Simulator<PeerNode>) -> usize {
        sim.alive_nodes_iter()
            .filter(|(_, node)| node.is_ring_member())
            .count()
    }

    fn snapshots(sim: &Simulator<PeerNode>) -> Vec<RingSnapshot> {
        sim.nodes_iter()
            .map(|(p, node)| RingSnapshot::of(node.ring(), sim.is_alive(p)))
            .collect()
    }

    #[test]
    fn items_inserted_are_stored_and_acked() {
        let cfg = SystemConfig::fast();
        let (mut sim, _pool, first) = cluster(&cfg, 0, 7);
        insert_keys(&mut sim, first, [10, 20, 30]);
        sim.run_for(Duration::from_millis(200));
        assert_eq!(total_items(&sim), 3);
        let acks = sim
            .node(first)
            .unwrap()
            .observations()
            .iter()
            .filter(|o| matches!(o, Observation::InsertAcked { .. }))
            .count();
        assert_eq!(acks, 3);
    }

    #[test]
    fn overflow_splits_with_a_free_peer_and_preserves_items() {
        let cfg = SystemConfig::fast();
        let (mut sim, pool, first) = cluster(&cfg, 2, 11);
        assert_eq!(pool.len(), 2);
        // sf = 2: six items force at least one split.
        insert_keys(&mut sim, first, (1..=8).map(|k| k * 1_000_000));
        sim.run_for(Duration::from_secs(3));
        assert!(ring_members(&sim) >= 2, "a free peer should have joined");
        assert!(pool.len() < 2);
        assert_eq!(total_items(&sim), 8, "no item may be lost by splits");
        // The splitter observed the insertSucc completion.
        let insert_succ_seen: usize = sim
            .nodes_iter()
            .map(|(_, node)| {
                node.observations()
                    .iter()
                    .filter(|o| matches!(o, Observation::InsertSuccCompleted { .. }))
                    .count()
            })
            .sum();
        assert!(insert_succ_seen >= 1);
        // Ring invariants hold.
        let snaps = snapshots(&sim);
        assert!(check_consistent_successor_pointers(&snaps).is_consistent());
        assert!(check_connectivity(&snaps).is_consistent());
    }

    #[test]
    fn range_query_returns_exactly_matching_items() {
        let cfg = SystemConfig::fast();
        let (mut sim, _pool, first) = cluster(&cfg, 3, 13);
        let keys: Vec<u64> = (1..=12).map(|k| k * 10_000_000).collect();
        insert_keys(&mut sim, first, keys.clone());
        sim.run_for(Duration::from_secs(4));
        assert!(ring_members(&sim) >= 2);

        let q = RangeQuery::closed(30_000_000u64, 90_000_000u64);
        sim.with_node_ctx(first, |node, ctx| node.range_query(ctx, q))
            .unwrap()
            .expect("query registered");
        sim.run_for(Duration::from_secs(2));
        let node = sim.node(first).unwrap();
        let outcome = node
            .observations()
            .iter()
            .find_map(|o| match o {
                Observation::QueryCompleted {
                    items, complete, ..
                } => Some((items.clone(), *complete)),
                _ => None,
            })
            .expect("query completed");
        let got: Vec<u64> = outcome.0.iter().map(|i| i.skv.raw()).collect();
        let expected: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|k| (30_000_000..=90_000_000).contains(k))
            .collect();
        assert_eq!(got, expected);
        assert!(outcome.1, "scan must report full coverage");
    }

    #[test]
    fn deletions_trigger_merge_and_peer_becomes_free_again() {
        let cfg = SystemConfig::fast();
        let (mut sim, pool, first) = cluster(&cfg, 2, 17);
        let keys: Vec<u64> = (1..=10).map(|k| k * 50_000_000).collect();
        insert_keys(&mut sim, first, keys.clone());
        sim.run_for(Duration::from_secs(4));
        let members_before = ring_members(&sim);
        assert!(members_before >= 2);

        // Delete almost everything: some peer underflows and merges away.
        for k in keys.iter().take(9) {
            sim.with_node_ctx(first, |node, ctx| node.delete_item(ctx, SearchKey(*k)))
                .unwrap();
            sim.run_for(Duration::from_millis(100));
        }
        sim.run_for(Duration::from_secs(6));
        let members_after = ring_members(&sim);
        assert!(
            members_after < members_before,
            "expected a merge to shrink the ring ({members_before} -> {members_after})"
        );
        assert_eq!(total_items(&sim), 1);
        // The merged-away peer went back to the pool and the ring stayed
        // consistent and connected.
        assert!(!pool.is_empty());
        let snaps = snapshots(&sim);
        assert!(check_consistent_successor_pointers(&snaps).is_consistent());
        assert!(check_connectivity(&snaps).is_consistent());
        let frees: usize = sim
            .nodes_iter()
            .map(|(_, node)| {
                node.observations()
                    .iter()
                    .filter(|o| matches!(o, Observation::BecameFree))
                    .count()
            })
            .sum();
        assert!(frees >= 1);
    }

    #[test]
    fn failed_peer_items_are_revived_from_replicas() {
        let cfg = SystemConfig::fast();
        let (mut sim, _pool, first) = cluster(&cfg, 3, 23);
        let keys: Vec<u64> = (1..=12).map(|k| k * 30_000_000).collect();
        insert_keys(&mut sim, first, keys.clone());
        // Let splits happen and replicas propagate.
        sim.run_for(Duration::from_secs(6));
        assert!(ring_members(&sim) >= 3);

        // Kill one ring member that is not the query issuer.
        let victim = sim
            .peers()
            .find(|p| {
                *p != first
                    && sim.node(*p).unwrap().is_ring_member()
                    && sim.node(*p).unwrap().item_count() > 0
            })
            .expect("a ring member with items");
        sim.kill(victim);
        // Give the ring time to detect the failure, take over the range and
        // revive replicas.
        sim.run_for(Duration::from_secs(8));

        let q = RangeQuery::closed(keys[0], *keys.last().unwrap());
        sim.with_node_ctx(first, |node, ctx| node.range_query(ctx, q))
            .unwrap()
            .expect("query registered");
        sim.run_for(Duration::from_secs(3));
        let node = sim.node(first).unwrap();
        let got: Vec<u64> = node
            .observations()
            .iter()
            .rev()
            .find_map(|o| match o {
                Observation::QueryCompleted { items, .. } => {
                    Some(items.iter().map(|i| i.skv.raw()).collect())
                }
                _ => None,
            })
            .expect("query completed");
        assert_eq!(got, keys, "all items must survive a single failure");
    }

    #[test]
    fn naive_configuration_still_functions_without_churn() {
        let cfg = SystemConfig::fast().with_protocol(Protocol::Naive);
        let (mut sim, _pool, first) = cluster(&cfg, 2, 31);
        let keys: Vec<u64> = (1..=8).map(|k| k * 40_000_000).collect();
        insert_keys(&mut sim, first, keys.clone());
        sim.run_for(Duration::from_secs(4));
        assert_eq!(total_items(&sim), 8);
        let q = RangeQuery::closed(keys[0], *keys.last().unwrap());
        sim.with_node_ctx(first, |node, ctx| node.range_query(ctx, q))
            .unwrap()
            .expect("query registered");
        sim.run_for(Duration::from_secs(2));
        let node = sim.node(first).unwrap();
        let completed = node
            .observations()
            .iter()
            .any(|o| matches!(o, Observation::QueryCompleted { pepper: false, .. }));
        assert!(completed, "naive scan must also complete in a quiet system");
    }

    #[test]
    fn voluntary_leave_hands_range_to_predecessor_and_frees_peer() {
        let cfg = SystemConfig::fast();
        let (mut sim, pool, first) = cluster(&cfg, 2, 19);
        insert_keys(&mut sim, first, (1..=8).map(|k| k * 1_000_000));
        sim.run_for(Duration::from_secs(4));
        let members_before = ring_members(&sim);
        assert!(members_before >= 2, "need a multi-peer ring");
        assert_eq!(total_items(&sim), 8);

        // Ask a non-bootstrap member to leave voluntarily.
        let leaver = sim
            .peers()
            .find(|p| *p != first && sim.node(*p).unwrap().is_ring_member())
            .expect("a second ring member");
        let started = sim
            .with_node_ctx(leaver, |node, ctx| node.request_leave(ctx))
            .unwrap();
        assert!(started, "the leave offer must be accepted for issue");
        sim.run_for(Duration::from_secs(6));

        assert!(
            !sim.node(leaver).unwrap().is_ring_member(),
            "the leaver must have departed"
        );
        assert!(
            pool.snapshot().contains(&leaver),
            "the leaver must be back in the free pool"
        );
        assert_eq!(total_items(&sim), 8, "no item may be lost by the leave");
        assert_eq!(ring_members(&sim), members_before - 1);
        let snaps = snapshots(&sim);
        assert!(check_consistent_successor_pointers(&snaps).is_consistent());
        assert!(check_connectivity(&snaps).is_consistent());
    }

    #[test]
    fn an_absorber_forwards_scans_to_the_granters_successor_at_once() {
        let cfg = SystemConfig::fast();
        let (mut sim, _pool, first) = cluster(&cfg, 4, 19);
        insert_keys(&mut sim, first, (1..=12).map(|k| k * 1_000_000));
        sim.run_for(Duration::from_secs(4));
        // A leaver with a range that does not wrap, whose predecessor and
        // successor are two other members.
        let (leaver, pred, succ) = sim
            .alive_nodes_iter()
            .filter(|(p, n)| *p != first && n.is_ring_member())
            .find_map(|(p, n)| {
                let (pred, _) = n.ring().pred()?;
                let (succ, _) = n.data_store().successor()?;
                let range = n.data_store().range();
                let plain = range.low() < range.high() && range.high().raw() < u64::MAX;
                (plain && pred != succ && ![pred, succ].contains(&p)).then_some((p, pred, succ))
            })
            .expect("a member with two distinct neighbours");
        let absorber = |sim: &Simulator<PeerNode>| {
            let ds = sim.node(pred).expect("alive").data_store();
            (ds.range().high(), ds.successor().map(|(p, _)| p))
        };
        assert_eq!(absorber(&sim).1, Some(leaver));
        let granted = sim.node(leaver).expect("alive").data_store().range();
        assert!(sim
            .with_node_ctx(leaver, |node, ctx| node.request_leave(ctx))
            .expect("alive"));

        // Step until the grant installs: the handler that installed it has
        // already named the granter's successor.
        let deadline = sim.now() + Duration::from_secs(3);
        while absorber(&sim).0 != granted.high() {
            assert!(sim.now() < deadline, "the grant never installed");
            sim.run_for(Duration::from_micros(10));
        }
        assert_eq!(absorber(&sim).1, Some(succ));

        // A scan from the absorber into the successor's range goes straight
        // there instead of waiting out a forward timeout at the departed
        // granter.
        let q = RangeQuery::closed(granted.low().raw() + 1, granted.high().raw() + 1);
        let id = sim
            .with_node_ctx(pred, |node, ctx| node.range_query(ctx, q))
            .expect("alive")
            .expect("query registered");
        sim.run_for(Duration::from_secs(2));
        let outcome = sim
            .node(pred)
            .expect("alive")
            .observations()
            .iter()
            .find_map(|o| match o {
                Observation::QueryCompleted {
                    query,
                    hops,
                    elapsed,
                    complete,
                    ..
                } if *query == id => Some((*hops, *elapsed, *complete)),
                _ => None,
            });
        let (hops, elapsed, complete) = outcome.expect("query completed");
        assert!(complete && hops >= 1, "hops {hops}, complete {complete}");
        assert!(
            elapsed < cfg.scan_forward_timeout(),
            "a forward timeout acted: {elapsed:?}"
        );
    }

    #[test]
    fn tracing_records_causal_events_and_metrics() {
        let cfg = SystemConfig::fast();
        let pool = FreePool::new();
        let mut sim: Simulator<PeerNode> = Simulator::new(NetworkConfig::lan(3));
        let tc = TraceConfig::enabled().with_ring_capacity(1 << 12);
        let cfg_first = cfg.clone();
        let pool_first = pool.clone();
        let first = sim.add_node(move |id| {
            PeerNode::first(id, PeerValue(u64::MAX / 2), cfg_first, pool_first).with_trace(&tc)
        });
        sim.with_node_ctx(first, |node, ctx| node.start(ctx));
        insert_keys(&mut sim, first, [10, 20, 30]);
        sim.run_for(Duration::from_secs(1));
        let node = sim.node(first).unwrap();
        assert_eq!(node.metrics().counter("api", "InsertItem"), 3);
        assert!(node.metrics().counter("net", "timer_fired") > 0);
        let events = node.trace_events();
        assert!(!events.is_empty());
        // Each insert API call is a causal root with its own cid...
        let api_cids: Vec<_> = events
            .iter()
            .filter(|e| e.layer == "api" && e.kind == "InsertItem")
            .map(|e| e.cid)
            .collect();
        assert_eq!(api_cids.len(), 3);
        assert!(api_cids.iter().all(|c| !c.is_none()));
        assert_eq!(
            api_cids.len(),
            api_cids
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            "distinct roots mint distinct cids"
        );
        // ...and the data-store events it caused inherit that cid.
        assert!(events
            .iter()
            .any(|e| e.layer == "ds" && api_cids.contains(&e.cid)));
    }

    /// One refresh round of `peer` taken outside the simulator: the pushes
    /// it would send (target, batch, stamp).
    fn refresh_round(
        sim: &mut Simulator<PeerNode>,
        peer: PeerId,
    ) -> Vec<(PeerId, Batch, Option<BatchStamp>)> {
        let now = sim.now();
        let mut out = Effects::new();
        sim.node_mut(peer)
            .expect("peer exists")
            .push_replicas(now, &mut out);
        out.drain()
            .into_iter()
            .filter_map(|e| match e {
                pepper_net::Effect::Send {
                    to,
                    msg: PeerMsg::Repl(pepper_replication::ReplMsg::Push { items, stamp, .. }),
                } => Some((to, items, stamp)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn refresh_rounds_share_one_batch_until_the_item_set_changes() {
        let cfg = SystemConfig::fast();
        let (mut sim, _pool, first) = cluster(&cfg, 4, 23);
        insert_keys(&mut sim, first, (1..=10).map(|k| k * 1_000_000));
        sim.run_for(Duration::from_secs(3));
        assert!(ring_members(&sim) >= 3);

        // Every successor of one round is handed the same allocation, and
        // so is every later round while the Data Store is left alone.
        let mut last = refresh_round(&mut sim, first);
        assert_eq!(last.len(), 2, "k = 2 successors");
        let stored = |sim: &Simulator<PeerNode>| {
            let node = sim.node(first).expect("first exists");
            node.data_store().local_items_mapped()
        };
        assert_eq!(last[0].1.to_vec(), stored(&sim));
        assert!(last[0].2.is_some());
        sim.run_for(Duration::from_secs(1));
        for (_, batch, stamp) in refresh_round(&mut sim, first) {
            assert!(Arc::ptr_eq(&batch, &last[0].1) && Arc::ptr_eq(&batch, &last[1].1));
            assert_eq!(stamp, last[0].2);
        }

        // An insert, a delete and a split hand-off each change the item
        // set: the next round builds a fresh batch under a fresh stamp.
        let own = |sim: &Simulator<PeerNode>, key: u64| {
            let node = sim.node(first).expect("first exists");
            node.data_store().range().contains(key)
        };
        let fresh = (1..).map(|k| k * 1_000_000 + 7).find(|k| own(&sim, *k));
        let victim = stored(&sim)[0].0;
        let members = ring_members(&sim);
        type Change<'a> = &'a dyn Fn(&mut Simulator<PeerNode>);
        let changes: [(&str, Change<'_>); 3] = [
            ("insert", &|sim| insert_keys(sim, first, fresh)),
            ("delete", &|sim| {
                sim.with_node_ctx(first, |node, ctx| node.delete_item(ctx, SearchKey(victim)));
                sim.run_for(Duration::from_millis(30));
            }),
            ("split", &|sim| {
                let mut key = fresh.expect("range not empty");
                while ring_members(sim) == members {
                    key += 1;
                    insert_keys(sim, first, own(sim, key).then_some(key));
                    sim.run_for(Duration::from_millis(300));
                }
            }),
        ];
        for (what, change) in changes {
            let before = stored(&sim);
            change(&mut sim);
            assert_ne!(stored(&sim), before, "{what} changed nothing");
            let round = refresh_round(&mut sim, first);
            assert!(!round.is_empty(), "{what}");
            for (_, batch, stamp) in &round {
                assert!(Arc::ptr_eq(batch, &round[0].1), "{what}");
                assert!(!Arc::ptr_eq(batch, &last[0].1), "{what}");
                assert_ne!(*stamp, last[0].2, "{what}");
            }
            assert_eq!(round[0].1.to_vec(), stored(&sim), "{what}");
            last = round;
        }
    }

    /// A settled ring of several members whose routers hold shortcuts.
    fn settled_ring(seed: u64) -> Simulator<PeerNode> {
        let cfg = SystemConfig::fast();
        let (mut sim, _pool, first) = cluster(&cfg, 12, seed);
        insert_keys(&mut sim, first, (1..=30).map(|k| k * 100_000_000_000));
        sim.run_for(Duration::from_secs(6));
        assert!(ring_members(&sim) >= 6);
        sim
    }

    /// A ring member and a shortcut of its router (not its ring successor)
    /// that its route to the key just past the shortcut's value takes — a
    /// key the shortcut's successor owns: `(member, peer, value)`.
    fn shortcut(sim: &Simulator<PeerNode>) -> (PeerId, PeerId, PeerValue) {
        sim.alive_nodes_iter()
            .filter(|(_, n)| n.is_ring_member())
            .find_map(|(me, n)| {
                let succ = n.ring().best_succ()?.peer;
                n.router()
                    .entries()
                    .iter()
                    .flatten()
                    .find_map(|&(peer, value)| {
                        let key = value.raw() + 1;
                        let hop = n.router().next_hop(n.ring().value(), PeerValue(key));
                        (peer != succ
                            && !n.data_store().range().contains(key)
                            && hop == Some((peer, value)))
                        .then_some((me, peer, value))
                    })
            })
            .expect("a member routing through a shortcut")
    }

    fn acked_after(sim: &Simulator<PeerNode>, at: PeerId, id: ItemId) -> Option<Duration> {
        sim.node(at)?.observations().iter().find_map(|o| match o {
            Observation::InsertAcked { item, elapsed } if *item == id => Some(*elapsed),
            _ => None,
        })
    }

    #[test]
    fn a_hop_to_a_killed_shortcut_is_re_forwarded_after_its_guard() {
        let mut sim = settled_ring(43);
        let (issuer, victim, value) = shortcut(&sim);
        sim.kill(victim);
        let item = Item::new(ItemId::new(issuer, 1), SearchKey(value.raw() + 1), "x");
        let id = item.id;
        sim.with_node_ctx(issuer, |node, ctx| node.insert_item(ctx, item));
        sim.run_for(ROUTE_GUARD / 2);
        let node = sim.node(issuer).expect("issuer alive");
        assert!(node.pending_hops.values().any(|h| h.peer == victim));
        assert_eq!(acked_after(&sim, issuer, id), None);
        sim.run_for(Duration::from_secs(3));
        let elapsed = acked_after(&sim, issuer, id).expect("the insert is acked");
        assert!(elapsed >= ROUTE_GUARD, "acked after {elapsed:?}");
        assert!(sim.node(issuer).expect("alive").pending_hops.is_empty());
    }

    #[test]
    fn a_hop_to_a_peer_that_moved_is_acked_and_corrects_the_shortcut() {
        let mut sim = settled_ring(47);
        let (issuer, peer, value) = shortcut(&sim);
        // Make the issuer believe the peer sits just below its real value:
        // the shortcut still wins the route.
        let stale = PeerValue(value.raw() - 1);
        let node = sim.node_mut(issuer).expect("issuer alive");
        node.router.correct(peer, stale);
        let item = Item::new(ItemId::new(issuer, 1), SearchKey(value.raw() + 1), "x");
        let id = item.id;
        sim.with_node_ctx(issuer, |node, ctx| node.insert_item(ctx, item));
        let hop = sim
            .node(issuer)
            .expect("alive")
            .pending_hops
            .values()
            .next();
        assert!(matches!(hop, Some(h) if (h.peer, h.value) == (peer, stale)));
        sim.run_for(Duration::from_millis(5));
        let node = sim.node(issuer).expect("alive");
        let held = node.router().entries().iter().flatten();
        assert!(held
            .filter(|(p, _)| *p == peer)
            .all(|e| *e == (peer, value)));
        assert!(node.pending_hops.is_empty());
        assert!(acked_after(&sim, issuer, id).is_some());
    }

    #[test]
    fn an_unknown_seq_in_an_ack_or_a_guard_changes_nothing() {
        let cfg = SystemConfig::fast();
        let mut node = PeerNode::first(PeerId(1), PeerValue(100), cfg, FreePool::new());
        node.router.set_successor(PeerId(2), PeerValue(200));
        let before = node.router().entries().to_vec();
        node.on_route_ack(7, None);
        let mut out = Effects::new();
        node.on_route_guard(SimTime::from_secs(1), 7, &mut out);
        assert!(out.is_empty());
        assert_eq!(node.router().entries(), &before[..]);
    }

    /// The delays of the snapshot ticks `out` arms.
    fn snapshot_ticks(out: &Effects<PeerMsg>) -> Vec<Duration> {
        out.iter()
            .filter_map(|e| match e {
                pepper_net::Effect::Timer {
                    delay,
                    msg: PeerMsg::SnapshotTick,
                } => Some(*delay),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn the_snapshot_tick_is_armed_once_per_incarnation_and_rearms_every_period() {
        let metrics = TraceConfig {
            metrics: true,
            ..TraceConfig::off()
        };
        // `start_layers` runs on `start` and again on every `Joined`; only
        // the first run arms the tick, staggered by the peer's id.
        let mut node = PeerNode::first(
            PeerId(90),
            PeerValue(1),
            SystemConfig::fast(),
            FreePool::new(),
        );
        let mut out = Effects::new();
        node.start_layers(SimTime::ZERO, &mut out);
        let stagger = Duration::from_micros(7 * 270);
        assert_eq!(snapshot_ticks(&out), [SNAPSHOT_PERIOD / 2 + stagger]);
        out.drain();
        node.start_layers(SimTime::from_secs(1), &mut out);
        assert!(snapshot_ticks(&out).is_empty());

        // On the simulator: ticks at 5 s, 15 s and 25 s (plus the stagger),
        // each counted under its message tag and the due check.
        let mut sim: Simulator<PeerNode> = Simulator::new(NetworkConfig::lan(1));
        let first = sim.add_node(move |id| {
            PeerNode::first(id, PeerValue(1), SystemConfig::fast(), FreePool::new())
                .with_trace(&metrics)
        });
        sim.with_node_ctx(first, |node, ctx| node.start(ctx));
        let counted = |sim: &Simulator<PeerNode>| {
            let m = sim.node(first).expect("alive").metrics();
            (
                m.counter("storage", "SnapshotTick"),
                m.counter("storage", "SnapshotDue"),
            )
        };
        sim.run_for(Duration::from_millis(4_900));
        assert_eq!(counted(&sim), (0, 0));
        sim.run_for(Duration::from_secs(10));
        assert_eq!(counted(&sim), (1, 1));
        sim.run_for(Duration::from_secs(11));
        assert_eq!(counted(&sim), (3, 3));
    }

    #[test]
    fn a_snapshot_tick_writes_a_snapshot_only_when_due() {
        let metrics = TraceConfig {
            metrics: true,
            ..TraceConfig::off()
        };
        let storage = PeerStorage::new_mem(
            1,
            pepper_storage::StorageConfig {
                snapshot_after_records: 2,
            },
        );
        let mut node = PeerNode::first(
            PeerId(1),
            PeerValue(1),
            SystemConfig::fast(),
            FreePool::new(),
        )
        .with_storage(storage)
        .with_trace(&metrics);
        let written = |node: &PeerNode| node.metrics().counter("storage", "snapshot_write");
        let tick = |node: &mut PeerNode| {
            let mut out = Effects::new();
            node.dispatch(
                SimTime::from_secs(5),
                PeerId(1),
                PeerMsg::SnapshotTick,
                &mut out,
            );
            assert_eq!(snapshot_ticks(&out), [SNAPSHOT_PERIOD], "the tick re-arms");
        };
        tick(&mut node);
        assert_eq!(written(&node), 0, "nothing journaled since the last image");
        node.storage.as_mut().expect("attached").log_item_delete(3);
        tick(&mut node);
        assert_eq!(written(&node), 0, "one record is not enough");
        node.storage.as_mut().expect("attached").log_item_delete(4);
        tick(&mut node);
        assert_eq!(written(&node), 1);
        assert!(!node.storage().expect("attached").snapshot_due());
        assert_eq!(node.metrics().counter("storage", "SnapshotDue"), 3);
    }

    #[test]
    fn a_bounce_retries_the_lowest_pending_insert_of_its_key() {
        // Free peers route nowhere: every insert bounces back to its issuer,
        // and each bounce re-sends one pending insert of the bounced key. Of
        // two inserts of one key, the one picked fails first — the lower
        // id, in every run of the seed and on every peer.
        let pool = FreePool::new();
        let mut sim: Simulator<PeerNode> = Simulator::new(NetworkConfig::lan(5));
        let peers: Vec<PeerId> = (0..16)
            .map(|_| {
                let pool = pool.clone();
                sim.add_node(move |id| PeerNode::free(id, SystemConfig::fast(), pool))
            })
            .collect();
        for &p in &peers {
            for seq in [1, 2] {
                let item = Item::new(ItemId::new(p, seq), SearchKey(7), "x");
                sim.with_node_ctx(p, |node, ctx| node.insert_item(ctx, item));
            }
        }
        sim.run_for(Duration::from_secs(3));
        for &p in &peers {
            let failed: Vec<ItemId> = sim
                .node(p)
                .expect("alive")
                .observations()
                .iter()
                .filter_map(|o| match o {
                    Observation::InsertFailed { item } => Some(*item),
                    _ => None,
                })
                .collect();
            assert_eq!(failed, [ItemId::new(p, 1), ItemId::new(p, 2)], "{p:?}");
        }
    }

    #[test]
    fn free_peer_registers_itself_and_unregisters_on_kill() {
        let cfg = SystemConfig::fast();
        let pool = FreePool::new();
        let mut sim: Simulator<PeerNode> = Simulator::new(NetworkConfig::lan(1));
        let cfg2 = cfg.clone();
        let pool2 = pool.clone();
        let free = sim.add_node(move |id| PeerNode::free(id, cfg2, pool2));
        assert_eq!(pool.snapshot(), vec![free]);
        sim.kill(free);
        assert!(pool.is_empty());
    }
}
