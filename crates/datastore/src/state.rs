//! The Data Store state machine: storage, range locking, item insertion and
//! deletion, and the top-level message dispatch.

use std::collections::HashMap;

use pepper_net::{Effects, LayerCtx, ProtocolLayer, SimTime};
use pepper_types::{
    CircularRange, Item, KeyInterval, PeerId, PeerValue, Protocol, RangeQuery, SystemConfig,
};

use crate::events::DsEvent;
use crate::messages::{DsMsg, QueryId};
use crate::store::ItemStore;

/// Whether the peer currently stores data (is part of the ring) or is a free
/// peer waiting to be used by a split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DsStatus {
    /// Free peer: holds no items, not responsible for any range.
    Free,
    /// Live peer: responsible for a range of the value space.
    Live,
}

/// Which part of the giving peer's range `(low, high]` a transfer moves to
/// a ring neighbour. Every storage-balance transfer is one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Give {
    /// Split: `(boundary, high]` goes to the freshly joined successor.
    Upper(PeerValue),
    /// Redistribute: `(low, boundary]` goes to the predecessor.
    Lower(PeerValue),
    /// Full merge or voluntary leave: everything goes to the predecessor
    /// and this peer becomes free.
    All,
}

/// The giving side's record of its one in-flight transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Giving {
    pub give: Give,
    /// The receiver: a split's free peer, or the predecessor.
    pub to: PeerId,
    /// Whether the range and items are on the wire. From then until the
    /// transfer finishes or aborts, item inserts/deletes targeting this peer
    /// are parked and re-dispatched afterwards, so no item can land in (or
    /// vanish from) the sub-range that is moving.
    pub sent: bool,
}

/// The one storage-balance hand-off a peer is in. A peer is in at most one
/// at a time; every other split, merge, redistribute or leave is declined
/// or deferred until it is back to `Idle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Balance {
    Idle,
    /// A split or merge has been announced to the index layer, or a grant
    /// this peer asked for is parked behind scan locks.
    Busy,
    /// A merge request went to this successor and is unanswered.
    Requesting(PeerId),
    /// Predecessor side of a voluntary leave: locked for this leaver's
    /// merge grant.
    Absorbing(PeerId),
    /// The giving side of a transfer.
    Giving(Giving),
}

/// A range/item mutation that must wait until all in-flight scans through
/// this peer have released their read lock on the range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DeferredWrite {
    /// Receiving side: store the granted items, take over `range` and
    /// acknowledge to the giver.
    Install {
        /// What the giver is giving (selects the acknowledgement).
        give: Give,
        /// The granted range.
        range: CircularRange,
        /// The items in that range.
        items: Vec<(u64, Item)>,
        /// The giver, to be acknowledged once installed.
        giver: PeerId,
    },
    /// Giving side: the receiver installed; drop the moved items and shrink
    /// the range.
    Finish(Give),
}

/// Bookkeeping for a scan hand-off awaiting the successor's acknowledgement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PendingForward {
    pub target: PeerId,
    pub interval: KeyInterval,
    pub hop: u32,
    pub attempt: usize,
}

/// A point-in-time inspection snapshot of one peer's Data Store, taken by
/// the simulation harness for the whole-system oracles (range partition, item
/// conservation, storage-factor bounds). See [`DataStoreState::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsSnapshot {
    /// The peer.
    pub id: PeerId,
    /// Live or free.
    pub status: DsStatus,
    /// The responsibility range.
    pub range: CircularRange,
    /// Mapped values of every stored item, in increasing order.
    pub mapped_keys: Vec<u64>,
    /// Whether a split/merge/redistribute is in flight at this peer.
    pub rebalancing: bool,
    /// Whether a two-sided transfer currently parks item writes here.
    pub writes_blocked: bool,
    /// Read locks held by in-flight scans.
    pub scan_locks: usize,
    /// Queries issued at this peer that have not completed.
    pub open_queries: usize,
}

impl DsSnapshot {
    /// Whether this peer is currently the giving or receiving side of a
    /// range transfer (hand-off, redistribution, merge). Range-partition
    /// invariants tolerate overlaps only across such peers, because
    /// copy-then-delete intentionally holds items on both sides until the
    /// receiver acknowledges.
    pub fn transfer_in_flight(&self) -> bool {
        self.rebalancing || self.writes_blocked
    }
}

/// Progress of a range query issued at this peer.
#[derive(Debug, Clone)]
pub struct QueryProgress {
    /// The normalized query interval.
    pub interval: KeyInterval,
    /// Items collected so far.
    pub items: Vec<Item>,
    /// Sub-intervals covered so far.
    pub covered: Vec<KeyInterval>,
    /// Virtual time the query was issued.
    pub started: SimTime,
    /// Highest hop count reported.
    pub hops: u32,
    /// Which hops' results have arrived, indexed by hop.
    pub hop_results: Vec<bool>,
    /// The hop that reported `ScanDone`, once it has. Results of earlier
    /// hops travel other links and may still be on their way.
    pub final_hop: Option<u32>,
    /// Whether the query uses the PEPPER `scanRange` (vs the naive scan).
    pub pepper: bool,
    /// How many times the scan start has been rejected and re-routed.
    pub reroutes: u32,
}

/// The per-peer Data Store state machine.
#[derive(Debug, Clone)]
pub struct DataStoreState {
    pub(crate) id: PeerId,
    pub(crate) status: DsStatus,
    pub(crate) range: CircularRange,
    pub(crate) store: ItemStore,
    pub(crate) cfg: SystemConfig,
    pub(crate) succ: Option<(PeerId, PeerValue)>,
    // scan locking
    pub(crate) scan_locks: usize,
    pub(crate) deferred: Vec<DeferredWrite>,
    /// Outstanding scan hand-offs per query. A list, not a single slot: a
    /// scan can visit the same peer twice (wrap-around over a degenerate
    /// ring), and each visit holds its own range lock until its own ack —
    /// overwriting the first hand-off would leak its lock forever.
    pub(crate) pending_forwards: HashMap<QueryId, Vec<PendingForward>>,
    // queries issued at this peer
    pub(crate) queries: HashMap<QueryId, QueryProgress>,
    pub(crate) next_query_seq: u64,
    pub(crate) balance: Balance,
    /// Leaver side of a voluntary leave: the predecessor the offer went to.
    /// Not a `Balance`: a split or merge may start while the offer is in
    /// flight, and the offer's ack then declines the leave.
    pub(crate) leave_offered_to: Option<PeerId>,
    /// Item writes parked while a give is on the wire.
    pub(crate) blocked_item_writes: Vec<(PeerId, DsMsg)>,
    /// Events buffered for the composed peer, drained through
    /// [`ProtocolLayer::drain_events`].
    pub(crate) events: Vec<DsEvent>,
}

impl DataStoreState {
    /// Creates the Data Store of the very first peer: live and responsible
    /// for the full value space.
    pub fn new_first(id: PeerId, value: PeerValue, cfg: SystemConfig) -> Self {
        Self::new(id, DsStatus::Live, CircularRange::full(value), cfg)
    }

    /// Creates the Data Store of a free peer.
    pub fn new_free(id: PeerId, cfg: SystemConfig) -> Self {
        Self::new(id, DsStatus::Free, CircularRange::empty(0u64), cfg)
    }

    fn new(id: PeerId, status: DsStatus, range: CircularRange, cfg: SystemConfig) -> Self {
        DataStoreState {
            id,
            status,
            range,
            store: ItemStore::new(),
            cfg,
            succ: None,
            scan_locks: 0,
            deferred: Vec::new(),
            pending_forwards: HashMap::new(),
            queries: HashMap::new(),
            next_query_seq: 0,
            balance: Balance::Idle,
            leave_offered_to: None,
            blocked_item_writes: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Buffers an event for the composed peer.
    pub(crate) fn emit(&mut self, event: DsEvent) {
        self.events.push(event);
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// This peer's id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// Whether the peer is live or free.
    pub fn status(&self) -> DsStatus {
        self.status
    }

    /// The range this peer is responsible for.
    pub fn range(&self) -> CircularRange {
        self.range
    }

    /// The upper end of the responsibility range (the peer's ring value).
    pub fn value(&self) -> PeerValue {
        self.range.high()
    }

    /// Number of items stored.
    pub fn item_count(&self) -> usize {
        self.store.len()
    }

    /// The items stored at this peer (the paper's `getLocalItems`).
    pub fn local_items(&self) -> Vec<Item> {
        self.store.to_vec().into_iter().map(|(_, i)| i).collect()
    }

    /// The items stored at this peer together with their mapped values.
    pub fn local_items_mapped(&self) -> Vec<(u64, Item)> {
        self.store.to_vec()
    }

    /// The stored items with their mapped values, by reference, in
    /// mapped-value order (what [`Self::local_items_mapped`] clones).
    pub fn items_mapped(&self) -> impl Iterator<Item = (u64, &Item)> {
        self.store.items().map(|(mapped, item)| (*mapped, item))
    }

    /// Mutation counter of the item set: as long as it reads the same,
    /// [`Self::items_mapped`] yields the same items.
    pub fn items_version(&self) -> u64 {
        self.store.version()
    }

    /// Whether a rebalance (split/merge/redistribute) is currently in flight.
    pub fn is_rebalancing(&self) -> bool {
        self.balance != Balance::Idle
    }

    /// Whether a two-sided transfer currently parks item writes at this peer
    /// (the giving side of a split hand-off, redistribution or merge).
    pub fn is_item_writes_blocked(&self) -> bool {
        self.giving().is_some_and(|g| g.sent)
    }

    /// A point-in-time inspection snapshot for oracles and invariant
    /// checkers. Cheap relative to a simulation step; never used by the
    /// protocol itself.
    pub fn snapshot(&self) -> DsSnapshot {
        DsSnapshot {
            id: self.id,
            status: self.status,
            range: self.range,
            mapped_keys: self.store.items().map(|(m, _)| *m).collect(),
            rebalancing: self.is_rebalancing(),
            writes_blocked: self.is_item_writes_blocked(),
            scan_locks: self.scan_locks,
            open_queries: self.queries.len(),
        }
    }

    /// Number of read locks currently held by in-flight scans.
    pub fn scan_locks(&self) -> usize {
        self.scan_locks
    }

    /// Updates the cached successor (called by the composed peer on ring
    /// `NewSuccessor` events).
    pub fn set_successor(&mut self, peer: PeerId, value: PeerValue) {
        self.succ = Some((peer, value));
    }

    /// The cached successor.
    pub fn successor(&self) -> Option<(PeerId, PeerValue)> {
        self.succ
    }

    /// Maps a search key to its placement value using the configured map.
    pub fn map_key(&self, item: &Item) -> u64 {
        self.cfg.key_map.map(item.skv).raw()
    }

    /// Information about a query issued at this peer (used by the composed
    /// peer for re-routing rejected scans).
    pub fn query_info(&self, query: QueryId) -> Option<(KeyInterval, bool)> {
        self.queries.get(&query).map(|q| (q.interval, q.pepper))
    }

    /// Number of queries currently in flight at this peer.
    pub fn open_queries(&self) -> usize {
        self.queries.len()
    }

    // ------------------------------------------------------------------
    // lifecycle driven by the composed peer
    // ------------------------------------------------------------------

    /// Installs the initial range of a peer that has just joined the ring via
    /// a split (before the hand-off arrives it owns an empty range anchored
    /// at its value).
    pub fn became_ring_member(&mut self, value: PeerValue) {
        if self.status == DsStatus::Free {
            self.status = DsStatus::Live;
            self.range = CircularRange::empty(value);
        }
    }

    /// Extends this peer's responsibility to start right after `pred_value`.
    /// Called by the composed peer when the ring reports a new predecessor
    /// (typically after the predecessor failed). The range is only ever
    /// *extended*; shrinking happens exclusively through explicit hand-offs.
    ///
    /// Returns the newly acquired sub-range (to be revived from replicas), if
    /// the range actually grew.
    pub fn extend_low_to(&mut self, pred_value: PeerValue) -> Option<CircularRange> {
        if self.status != DsStatus::Live || self.range.is_full() {
            return None;
        }
        let current = self.range;
        if current.low() == pred_value {
            return None;
        }
        // Extending down to exactly this peer's own value means the new
        // predecessor is this peer itself — the sole-survivor takeover (the
        // ring collapsed to one member whose neighbours all died or
        // departed): claim the full circle; everything outside the current
        // range is the acquired gap to revive.
        if !current.is_empty() && pred_value == current.high() {
            let acquired = CircularRange::new(current.high(), current.low());
            self.range = CircularRange::full(current.high().raw());
            self.emit(DsEvent::RangeChanged {
                range: self.range,
                value: self.range.high(),
                grew: true,
            });
            return Some(acquired);
        }
        // Only extend: the new low must lie outside the current range,
        // otherwise the "new" predecessor claims part of what we own and we
        // ignore it (hand-offs are the only way to shrink).
        if !current.is_empty() && current.contains(pred_value) {
            return None;
        }
        let acquired = if current.is_empty() {
            CircularRange::new(pred_value, current.high())
        } else {
            CircularRange::new(pred_value, current.low())
        };
        if acquired.is_empty() {
            return None;
        }
        self.range = CircularRange::new(pred_value, current.high());
        self.emit(DsEvent::RangeChanged {
            range: self.range,
            value: self.range.high(),
            grew: true,
        });
        Some(acquired)
    }

    /// FAULT-INJECTION ONLY: installs a recovered durable image as live,
    /// owned state without any rejoin handshake — the deliberately broken
    /// [`RecoveryMode::ServeStaleRange`] the harness red-tests its oracles
    /// against. A correct restart never calls this: recovered state is
    /// donated to the live owners instead (see `PeerNode::restart_rejoin`
    /// in `pepper-index`).
    ///
    /// [`RecoveryMode::ServeStaleRange`]: https://docs.rs/pepper-storage
    pub fn install_recovered_stale(&mut self, range: CircularRange, items: Vec<(u64, Item)>) {
        self.status = DsStatus::Live;
        self.range = range;
        for (mapped, item) in items {
            self.store.insert(mapped, item);
        }
    }

    /// Inserts items revived from replicas (after a predecessor failure).
    pub fn install_revived(&mut self, items: Vec<(u64, Item)>) {
        for (mapped, item) in items {
            if self.range.contains(mapped) && !self.store.contains(mapped) {
                self.emit(DsEvent::ItemStored { item: item.clone() });
                self.store.insert(mapped, item);
            }
        }
        // A takeover can push this peer over the storage bound; without this
        // re-check the overflow would go unnoticed until the next insert.
        self.recheck_balance();
    }

    // ------------------------------------------------------------------
    // range-lock machinery
    // ------------------------------------------------------------------

    pub(crate) fn acquire_scan_lock(&mut self) {
        self.scan_locks += 1;
    }

    pub(crate) fn release_scan_lock(&mut self, ctx: LayerCtx, fx: &mut Effects<DsMsg>) {
        debug_assert!(self.scan_locks > 0, "releasing a lock that is not held");
        self.scan_locks = self.scan_locks.saturating_sub(1);
        if self.scan_locks == 0 {
            self.apply_deferred(ctx, fx);
        }
    }

    /// Either applies a range/item mutation immediately (no scans in flight)
    /// or defers it until the last scan lock is released. With the naive
    /// protocols there are no locks, so writes always apply immediately.
    pub(crate) fn write_or_defer(
        &mut self,
        ctx: LayerCtx,
        write: DeferredWrite,
        fx: &mut Effects<DsMsg>,
    ) {
        if self.scan_locks > 0 {
            self.deferred.push(write);
        } else {
            self.apply_write(ctx, write, fx);
        }
    }

    pub(crate) fn apply_deferred(&mut self, ctx: LayerCtx, fx: &mut Effects<DsMsg>) {
        let pending = std::mem::take(&mut self.deferred);
        for write in pending {
            self.apply_write(ctx, write, fx);
        }
    }

    // ------------------------------------------------------------------
    // item insertion / deletion
    // ------------------------------------------------------------------

    fn on_insert_item(&mut self, item: Item, reply_to: PeerId, fx: &mut Effects<DsMsg>) {
        if self.is_item_writes_blocked() {
            self.blocked_item_writes
                .push((reply_to, DsMsg::InsertItem { item, reply_to }));
            return;
        }
        let mapped = self.map_key(&item);
        if self.status != DsStatus::Live || !self.range.contains(mapped) {
            fx.send(reply_to, DsMsg::NotResponsible { mapped });
            return;
        }
        self.emit(DsEvent::ItemStored { item: item.clone() });
        fx.send(reply_to, DsMsg::InsertItemAck { item: item.id });
        self.store.insert(mapped, item);
        self.check_overflow();
    }

    fn on_delete_item(&mut self, mapped: u64, reply_to: PeerId, fx: &mut Effects<DsMsg>) {
        if self.is_item_writes_blocked() {
            self.blocked_item_writes
                .push((reply_to, DsMsg::DeleteItem { mapped, reply_to }));
            return;
        }
        if self.status != DsStatus::Live || !self.range.contains(mapped) {
            fx.send(reply_to, DsMsg::NotResponsible { mapped });
            return;
        }
        let removed = self.store.remove(mapped);
        if let Some(item) = &removed {
            self.emit(DsEvent::ItemRemoved {
                item: item.id,
                mapped,
            });
        }
        fx.send(
            reply_to,
            DsMsg::DeleteItemAck {
                mapped,
                found: removed.is_some(),
            },
        );
        self.check_underflow();
    }

    // ------------------------------------------------------------------
    // query registration (issuer side)
    // ------------------------------------------------------------------

    /// Registers a range query issued at this peer. The composed peer is
    /// responsible for routing the first [`DsMsg::ScanStep`] (or
    /// [`DsMsg::NaiveScanStep`]) to the peer owning the query's lower bound.
    ///
    /// Returns the query id and the normalized interval, or `None` when the
    /// query denotes an empty range.
    pub fn register_query(
        &mut self,
        ctx: LayerCtx,
        query: RangeQuery,
        fx: &mut Effects<DsMsg>,
    ) -> Option<(QueryId, KeyInterval)> {
        let interval = query.normalize()?;
        let id = QueryId {
            origin: self.id,
            seq: self.next_query_seq,
        };
        self.next_query_seq += 1;
        self.queries.insert(
            id,
            QueryProgress {
                interval,
                items: Vec::new(),
                covered: Vec::new(),
                started: ctx.now,
                hops: 0,
                hop_results: Vec::new(),
                final_hop: None,
                pepper: self.cfg.protocol == Protocol::Pepper,
                reroutes: 0,
            },
        );
        // Safety net: finalize the query even if the scan dies somewhere.
        fx.timer(self.cfg.query_timeout(), DsMsg::ScanFailed { query: id });
        Some((id, interval))
    }

    pub(crate) fn finalize_query(&mut self, ctx: LayerCtx, query: QueryId) {
        let Some(progress) = self.queries.remove(&query) else {
            return;
        };
        let complete = intervals_cover(progress.interval, &progress.covered);
        let mut items = progress.items;
        items.sort_by_key(|i| i.skv);
        items.dedup_by_key(|i| i.id);
        self.emit(DsEvent::QueryCompleted {
            query,
            items,
            hops: progress.hops,
            elapsed: ctx.now - progress.started,
            complete,
        });
    }

    // ------------------------------------------------------------------
    // dispatch
    // ------------------------------------------------------------------

    /// Dispatches one Data Store message. Also re-entered by
    /// [`DataStoreState::unblock_item_writes`] when parked writes resume.
    pub(crate) fn dispatch(
        &mut self,
        ctx: LayerCtx,
        from: PeerId,
        msg: DsMsg,
        fx: &mut Effects<DsMsg>,
    ) {
        match msg {
            DsMsg::InsertItem { item, reply_to } => self.on_insert_item(item, reply_to, fx),
            DsMsg::InsertItemAck { item } => self.emit(DsEvent::InsertAcked { item }),
            DsMsg::DeleteItem { mapped, reply_to } => self.on_delete_item(mapped, reply_to, fx),
            DsMsg::DeleteItemAck { mapped, found } => {
                self.emit(DsEvent::DeleteAcked { mapped, found })
            }
            DsMsg::NotResponsible { mapped } => self.emit(DsEvent::Rerouted { mapped }),

            DsMsg::ScanStep {
                query,
                interval,
                prev,
                hop,
            } => self.on_scan_step(ctx, query, interval, prev, hop, fx),
            DsMsg::ScanStepAck { query, hop } => self.on_scan_step_ack(ctx, query, hop, fx),
            DsMsg::ScanForwardTimeout {
                query,
                target,
                hop,
                attempt,
            } => self.on_scan_forward_timeout(ctx, query, target, hop, attempt, fx),
            DsMsg::ScanRejected { query } => self.on_scan_rejected(ctx, query),
            DsMsg::NaiveScanStep {
                query,
                interval,
                hop,
            } => self.on_naive_scan_step(ctx, query, interval, hop, fx),
            DsMsg::ScanResult {
                query,
                items,
                covered,
                hop,
            } => self.on_scan_result(ctx, query, items, covered, hop),
            DsMsg::ScanDone { query, hops } => self.on_scan_done(ctx, query, hops),
            DsMsg::ScanFailed { query } => self.finalize_query(ctx, query),

            // Storage balance. The three grants differ only in how the wire
            // message spells the granted range; the three acknowledgements
            // finish the matching give.
            DsMsg::HandoffInstall { range, items } => {
                self.on_grant(ctx, from, Give::Upper(range.low()), range, items, fx)
            }
            DsMsg::RedistributeGrant {
                items,
                new_boundary,
                granter_low,
            } => {
                let range = CircularRange::new(granter_low, new_boundary);
                self.on_grant(ctx, from, Give::Lower(new_boundary), range, items, fx)
            }
            DsMsg::MergeGrant { range, items, .. } => {
                self.on_grant(ctx, from, Give::All, range, items, fx)
            }
            DsMsg::HandoffAck => {
                // Only the record knows the boundary of the split being
                // acknowledged.
                if let Some(give @ Give::Upper(_)) = self.giving().map(|g| g.give) {
                    self.write_or_defer(ctx, DeferredWrite::Finish(give), fx);
                }
            }
            DsMsg::RedistributeAck { new_boundary } => {
                self.write_or_defer(ctx, DeferredWrite::Finish(Give::Lower(new_boundary)), fx)
            }
            DsMsg::MergeGrantAck => self.write_or_defer(ctx, DeferredWrite::Finish(Give::All), fx),
            DsMsg::MergeRequest {
                requester_items, ..
            } => self.on_merge_request(from, requester_items, fx),
            DsMsg::RedistributeAbort { new_boundary } => {
                self.on_redistribute_abort(from, new_boundary, fx)
            }
            DsMsg::RedistributeAbortAck { new_boundary } => {
                if self.is_giving(Give::Lower(new_boundary)) {
                    self.abort_give(ctx, fx);
                }
            }
            DsMsg::MergeDeclined => self.on_merge_declined(from, fx),
            // `leaver_value` rides along for diagnostics and tracing only.
            DsMsg::LeaveOffer { .. } => self.on_leave_offer(from, fx),
            DsMsg::LeaveOfferAck => self.on_leave_offer_ack(from, fx),
            DsMsg::LeaveOfferDeclined => self.clear_leave_offer(from),
            DsMsg::RebalanceRetry => self.recheck_balance(),
            DsMsg::GiveTimeout {
                to,
                boundary,
                attempt,
            } => self.on_give_timeout(ctx, to, boundary, attempt, fx),
            DsMsg::LeaveOfferTimeout { to } => self.clear_leave_offer(to),
            DsMsg::LeaveAbsorbTimeout { from } => self.on_leave_absorb_timeout(from),
        }
    }
}

impl ProtocolLayer for DataStoreState {
    type Msg = DsMsg;
    type Event = DsEvent;

    /// The Data Store has no periodic protocol of its own; its only timers
    /// (scan-forward timeouts, rebalance retries, query deadlines) are armed
    /// by the handlers that need them.
    fn start_timers(&mut self, _ctx: LayerCtx, _fx: &mut Effects<DsMsg>) {}

    fn handle(&mut self, ctx: LayerCtx, from: PeerId, msg: DsMsg, fx: &mut Effects<DsMsg>) {
        self.dispatch(ctx, from, msg, fx);
    }

    fn drain_events(&mut self) -> Vec<DsEvent> {
        std::mem::take(&mut self.events)
    }
}

/// Returns `true` iff `pieces` (closed intervals) jointly cover `interval`
/// without gaps.
pub fn intervals_cover(interval: KeyInterval, pieces: &[KeyInterval]) -> bool {
    if pieces.is_empty() {
        return false;
    }
    let mut sorted: Vec<KeyInterval> = pieces.to_vec();
    sorted.sort_by_key(|p| (p.lo(), p.hi()));
    let mut next_needed = interval.lo();
    for p in sorted {
        if p.lo() > next_needed {
            return false;
        }
        if p.hi() >= next_needed {
            if p.hi() >= interval.hi() {
                return true;
            }
            next_needed = p.hi() + 1;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepper_types::SearchKey;

    fn handle(
        ds: &mut DataStoreState,
        ctx: LayerCtx,
        from: PeerId,
        msg: DsMsg,
        fx: &mut Effects<DsMsg>,
    ) -> Vec<DsEvent> {
        ProtocolLayer::handle(ds, ctx, from, msg, fx);
        ds.drain_events()
    }

    fn ctx(id: u64) -> LayerCtx {
        LayerCtx::new(PeerId(id), SimTime::from_secs(1))
    }

    fn item(k: u64) -> Item {
        Item::for_key(SearchKey(k))
    }

    fn live_peer(id: u64, low: u64, high: u64, keys: &[u64]) -> DataStoreState {
        let mut ds = DataStoreState::new_first(PeerId(id), PeerValue(high), SystemConfig::fast());
        ds.range = CircularRange::new(low, high);
        for &k in keys {
            ds.store.insert(k, item(k));
        }
        ds
    }

    #[test]
    fn first_peer_owns_everything() {
        let ds = DataStoreState::new_first(PeerId(0), PeerValue(100), SystemConfig::fast());
        assert_eq!(ds.status(), DsStatus::Live);
        assert!(ds.range().is_full());
        assert_eq!(ds.item_count(), 0);
        assert_eq!(ds.value(), PeerValue(100));
    }

    #[test]
    fn free_peer_holds_nothing() {
        let ds = DataStoreState::new_free(PeerId(1), SystemConfig::fast());
        assert_eq!(ds.status(), DsStatus::Free);
        assert!(ds.range().is_empty());
    }

    #[test]
    fn insert_stores_and_acks() {
        let mut ds = live_peer(1, 0, 100, &[]);
        let mut fx = Effects::new();
        let events = handle(
            &mut ds,
            ctx(1),
            PeerId(9),
            DsMsg::InsertItem {
                item: item(50),
                reply_to: PeerId(9),
            },
            &mut fx,
        );
        assert_eq!(ds.item_count(), 1);
        assert!(events
            .iter()
            .any(|e| matches!(e, DsEvent::ItemStored { .. })));
        assert!(fx.iter().any(|e| matches!(
            e,
            pepper_net::Effect::Send { to, msg: DsMsg::InsertItemAck { .. } } if *to == PeerId(9)
        )));
    }

    #[test]
    fn insert_outside_range_bounces() {
        let mut ds = live_peer(1, 0, 100, &[]);
        let mut fx = Effects::new();
        handle(
            &mut ds,
            ctx(1),
            PeerId(9),
            DsMsg::InsertItem {
                item: item(500),
                reply_to: PeerId(9),
            },
            &mut fx,
        );
        assert_eq!(ds.item_count(), 0);
        assert!(fx.iter().any(|e| matches!(
            e,
            pepper_net::Effect::Send {
                msg: DsMsg::NotResponsible { mapped: 500 },
                ..
            }
        )));
    }

    #[test]
    fn overflow_raises_split_needed_once() {
        let mut ds = live_peer(1, 0, 100, &[]);
        let mut fx = Effects::new();
        let mut events = Vec::new();
        // sf = 2, overflow threshold = 4: the 5th item triggers the event.
        for k in 1..=5u64 {
            events.extend(handle(
                &mut ds,
                ctx(1),
                PeerId(9),
                DsMsg::InsertItem {
                    item: item(k * 10),
                    reply_to: PeerId(9),
                },
                &mut fx,
            ));
        }
        let splits = events
            .iter()
            .filter(|e| matches!(e, DsEvent::SplitNeeded { .. }))
            .count();
        assert_eq!(splits, 1);
        assert!(ds.is_rebalancing());
    }

    #[test]
    fn delete_removes_and_may_trigger_merge() {
        let mut ds = live_peer(1, 0, 100, &[10, 20, 30]);
        let mut fx = Effects::new();
        handle(
            &mut ds,
            ctx(1),
            PeerId(9),
            DsMsg::DeleteItem {
                mapped: 20,
                reply_to: PeerId(9),
            },
            &mut fx,
        );
        assert_eq!(ds.item_count(), 2);
        let events = handle(
            &mut ds,
            ctx(1),
            PeerId(9),
            DsMsg::DeleteItem {
                mapped: 10,
                reply_to: PeerId(9),
            },
            &mut fx,
        );
        // sf = 2: one item left < sf triggers MergeNeeded.
        assert!(events
            .iter()
            .any(|e| matches!(e, DsEvent::MergeNeeded { .. })));
        // Deleting a missing item reports found = false.
        let mut fx2 = Effects::new();
        handle(
            &mut ds,
            ctx(1),
            PeerId(9),
            DsMsg::DeleteItem {
                mapped: 999,
                reply_to: PeerId(9),
            },
            &mut fx2,
        );
        assert!(fx2.iter().any(|e| matches!(
            e,
            pepper_net::Effect::Send {
                msg: DsMsg::NotResponsible { .. },
                ..
            }
        )));
    }

    #[test]
    fn full_range_peer_never_asks_to_merge() {
        let mut ds = DataStoreState::new_first(PeerId(0), PeerValue(100), SystemConfig::fast());
        ds.store.insert(10, item(10));
        let mut fx = Effects::new();
        let events = handle(
            &mut ds,
            ctx(0),
            PeerId(9),
            DsMsg::DeleteItem {
                mapped: 10,
                reply_to: PeerId(9),
            },
            &mut fx,
        );
        assert!(!events
            .iter()
            .any(|e| matches!(e, DsEvent::MergeNeeded { .. })));
    }

    #[test]
    fn extend_low_grows_but_never_shrinks() {
        let mut ds = live_peer(1, 50, 100, &[]);
        // New predecessor farther back: range extends.
        let acquired = ds.extend_low_to(PeerValue(20)).unwrap();
        assert_eq!(acquired, CircularRange::new(20u64, 50u64));
        assert_eq!(ds.range(), CircularRange::new(20u64, 100u64));
        assert!(ds
            .drain_events()
            .iter()
            .any(|e| matches!(e, DsEvent::RangeChanged { .. })));
        // A predecessor inside our range is ignored (that shrink must come
        // from an explicit hand-off).
        assert!(ds.extend_low_to(PeerValue(60)).is_none());
        assert_eq!(ds.range(), CircularRange::new(20u64, 100u64));
        // Same low is a no-op.
        assert!(ds.extend_low_to(PeerValue(20)).is_none());
    }

    #[test]
    fn install_revived_respects_range_and_duplicates() {
        let mut ds = live_peer(1, 50, 100, &[60]);
        ds.install_revived(vec![(55, item(55)), (60, item(60)), (10, item(10))]);
        assert_eq!(ds.item_count(), 2); // 55 added, 60 duplicate, 10 outside
        assert!(ds.store.contains(55));
        assert!(!ds.store.contains(10));
    }

    #[test]
    fn register_and_finalize_query() {
        let mut ds = live_peer(1, 0, 100, &[]);
        let mut fx = Effects::new();
        let (id, interval) = ds
            .register_query(ctx(1), RangeQuery::closed(10u64, 30u64), &mut fx)
            .unwrap();
        assert_eq!(interval, KeyInterval::new(10, 30).unwrap());
        assert_eq!(ds.open_queries(), 1);
        assert!(ds.query_info(id).is_some());
        // A safety-net timer was armed.
        assert!(fx
            .iter()
            .any(|e| matches!(e, pepper_net::Effect::Timer { .. })));

        // Simulate results arriving and the scan finishing.
        let mut events = Vec::new();
        events.extend(handle(
            &mut ds,
            ctx(1),
            PeerId(2),
            DsMsg::ScanResult {
                query: id,
                items: vec![item(15)],
                covered: vec![KeyInterval::new(10, 30).unwrap()],
                hop: 0,
            },
            &mut fx,
        ));
        events.extend(handle(
            &mut ds,
            ctx(1),
            PeerId(2),
            DsMsg::ScanDone { query: id, hops: 0 },
            &mut fx,
        ));
        let done = events
            .iter()
            .find_map(|e| match e {
                DsEvent::QueryCompleted {
                    items, complete, ..
                } => Some((items.clone(), *complete)),
                _ => None,
            })
            .unwrap();
        assert_eq!(done.0.len(), 1);
        assert!(done.1);
        assert_eq!(ds.open_queries(), 0);
    }

    #[test]
    fn empty_query_is_rejected_at_registration() {
        let mut ds = live_peer(1, 0, 100, &[]);
        let mut fx = Effects::new();
        assert!(ds
            .register_query(ctx(1), RangeQuery::open(5u64, 6u64), &mut fx)
            .is_none());
    }

    #[test]
    fn deferred_writes_wait_for_scan_lock_release() {
        let mut ds = live_peer(1, 0, 100, &[10, 20, 30, 40]);
        let mut fx = Effects::new();
        ds.acquire_scan_lock();
        // A split completion arrives while the scan lock is held: deferred.
        ds.write_or_defer(
            ctx(1),
            DeferredWrite::Finish(Give::Upper(PeerValue(20))),
            &mut fx,
        );
        assert_eq!(ds.item_count(), 4);
        assert_eq!(ds.range(), CircularRange::new(0u64, 100u64));
        // Releasing the lock applies it.
        ds.release_scan_lock(ctx(1), &mut fx);
        assert_eq!(ds.item_count(), 2);
        assert_eq!(ds.range(), CircularRange::new(0u64, 20u64));
    }

    #[test]
    fn intervals_cover_detects_gaps() {
        let target = KeyInterval::new(10, 50).unwrap();
        let full = vec![
            KeyInterval::new(10, 20).unwrap(),
            KeyInterval::new(21, 50).unwrap(),
        ];
        assert!(intervals_cover(target, &full));
        let overlapping = vec![
            KeyInterval::new(5, 30).unwrap(),
            KeyInterval::new(25, 60).unwrap(),
        ];
        assert!(intervals_cover(target, &overlapping));
        let gap = vec![
            KeyInterval::new(10, 20).unwrap(),
            KeyInterval::new(22, 50).unwrap(),
        ];
        assert!(!intervals_cover(target, &gap));
        assert!(!intervals_cover(target, &[]));
        let missing_start = vec![KeyInterval::new(11, 50).unwrap()];
        assert!(!intervals_cover(target, &missing_start));
        let missing_end = vec![KeyInterval::new(10, 49).unwrap()];
        assert!(!intervals_cover(target, &missing_end));
    }

    #[test]
    fn became_ring_member_gives_empty_anchored_range() {
        let mut ds = DataStoreState::new_free(PeerId(3), SystemConfig::fast());
        ds.became_ring_member(PeerValue(70));
        assert_eq!(ds.status(), DsStatus::Live);
        assert!(ds.range().is_empty());
        assert_eq!(ds.range().high(), PeerValue(70));
        // A live peer is unaffected.
        let mut live = live_peer(1, 0, 100, &[]);
        live.became_ring_member(PeerValue(5));
        assert_eq!(live.range(), CircularRange::new(0u64, 100u64));
    }
}
