//! Storage balance: splits, merges and redistributions (Section 2.3).
//!
//! The protocols here keep every live peer between `sf` and `2·sf` items:
//!
//! * **overflow → split**: the peer keeps the lower half of its range, a
//!   free peer (joined into the ring as this peer's successor by the index
//!   layer) receives the upper half via a hand-off;
//! * **underflow → merge/redistribute**: the peer asks its successor; the
//!   successor either hands over the lower portion of its items
//!   (redistribute, moving the boundary up) or gives up its entire range and
//!   becomes a free peer again (full merge, preceded by the availability
//!   protections of Section 5).
//!
//! All three are one transfer, described by a `Give`: a contiguous part of
//! the giver's range and its items move to a ring neighbour,
//! *copy-then-delete*. The giving side keeps its items and range until the
//! receiving side has acknowledged the installation, and both sides apply
//! their range change only while no scan holds their range lock (see
//! [`crate::state`]). While a transfer is on the wire the giving side parks
//! incoming item inserts/deletes so no item can land in (or silently vanish
//! from) the moving sub-range.
//!
//! A peer is in at most one hand-off at a time, its `Balance`; every guard
//! timer and late reply checks that the hand-off it belongs to is still the
//! current one before it acts.

use std::time::Duration;

use pepper_net::{Effects, LayerCtx};
use pepper_types::{CircularRange, Item, PeerId, PeerValue};

use crate::events::DsEvent;
use crate::messages::DsMsg;
use crate::state::{Balance, DataStoreState, DeferredWrite, DsStatus, Give, Giving};

/// Delay before re-checking an overflow/underflow that could not be acted
/// upon immediately (no free peer, lock busy, …).
const REBALANCE_RETRY_DELAY: Duration = Duration::from_millis(500);

impl DataStoreState {
    // ------------------------------------------------------------------
    // threshold checks
    // ------------------------------------------------------------------

    /// Declares an overflow when the store exceeds `2·sf` items.
    pub(crate) fn check_overflow(&mut self) {
        if self.status == DsStatus::Live
            && self.balance == Balance::Idle
            && self.store.len() > self.cfg.overflow_threshold()
            && self.store.len() >= 2
        {
            self.balance = Balance::Busy;
            self.emit(DsEvent::SplitNeeded {
                items: self.store.len(),
            });
        }
    }

    /// Declares an underflow when the store drops below `sf` items. A peer
    /// responsible for the whole circle has nobody to merge with.
    pub(crate) fn check_underflow(&mut self) {
        if self.status == DsStatus::Live
            && self.balance == Balance::Idle
            && !self.range.is_full()
            && self.store.len() < self.cfg.underflow_threshold()
        {
            self.balance = Balance::Busy;
            self.emit(DsEvent::MergeNeeded {
                items: self.store.len(),
            });
        }
    }

    /// Re-runs the threshold checks (used by the retry timer and by the
    /// index layer after external changes).
    pub fn recheck_balance(&mut self) {
        self.check_overflow();
        self.check_underflow();
    }

    /// Aborts an announced rebalance (no free peer available, no successor,
    /// ring insert failed, …) and schedules a retry. A give that is already
    /// on the wire cannot be called back this way.
    pub fn cancel_rebalance(&mut self, fx: &mut Effects<DsMsg>) {
        if !self.is_item_writes_blocked() {
            self.balance = Balance::Idle;
        }
        fx.timer(REBALANCE_RETRY_DELAY, DsMsg::RebalanceRetry);
    }

    /// Cancels the split waiting on the ring to insert `free`, if that is
    /// the hand-off in flight (the ring aborted the insert). Returns whether
    /// it was.
    pub fn cancel_split(&mut self, free: PeerId, fx: &mut Effects<DsMsg>) -> bool {
        let waiting = self.split_waiting_on(free).is_some();
        if waiting {
            self.cancel_rebalance(fx);
        }
        waiting
    }

    /// Failure cleanup, driven by the ring's failure detector: `peer` has
    /// been declared fail-stopped. Any two-sided transfer waiting on a reply
    /// from `peer` would otherwise hang forever (stuck hand-off, parked item
    /// writes, storage bounds never re-checked). Copy-then-delete makes
    /// every abort safe: the giving side still holds all items until the ack
    /// that will now never come.
    pub fn on_peer_failed(&mut self, ctx: LayerCtx, peer: PeerId, fx: &mut Effects<DsMsg>) {
        // Drop deferred grants from the dead successor: its retained range
        // is revived from replicas by its own ring successor, so applying
        // the stale grant here would double-own the granted sub-range. (The
        // grant was a copy — the items live on as replicas — so nothing is
        // lost.)
        if self.drop_parked_grants(peer, |give| !matches!(give, Give::Upper(_))) {
            fx.timer(REBALANCE_RETRY_DELAY, DsMsg::RebalanceRetry);
        }
        match self.balance {
            // The split's free peer died before joining or before
            // acknowledging the hand-off. (The receiver of the other gives
            // is this peer's predecessor, which the failure detector never
            // reports; `GiveTimeout` covers those.)
            Balance::Giving(g) if g.to == peer && matches!(g.give, Give::Upper(_)) => {
                self.abort_give(ctx, fx)
            }
            // The successor died before answering our merge request.
            Balance::Requesting(p) if p == peer => {
                self.balance = Balance::Idle;
                fx.timer(REBALANCE_RETRY_DELAY, DsMsg::RebalanceRetry);
            }
            // The voluntary leaver died before its grant applied; unlock
            // early (the absorb timeout would catch it later).
            Balance::Absorbing(p) if p == peer => {
                self.balance = Balance::Idle;
                self.recheck_balance();
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // the giving side
    // ------------------------------------------------------------------

    /// The `(moved, kept)` parts of this peer's range under `give`. A full
    /// circle is anchored at `low == high`, so the same arithmetic splits it.
    fn parts(&self, give: Give) -> (CircularRange, CircularRange) {
        let (low, high) = (self.range.low(), self.range.high());
        match give {
            Give::Upper(b) => (CircularRange::new(b, high), CircularRange::new(low, b)),
            Give::Lower(b) => (CircularRange::new(low, b), CircularRange::new(b, high)),
            // Everything stored leaves, whatever the range says: a free peer
            // holds nothing.
            Give::All => (CircularRange::full(high), CircularRange::empty(high)),
        }
    }

    /// The in-flight give, if this peer is the giving side of a transfer.
    pub(crate) fn giving(&self) -> Option<Giving> {
        match self.balance {
            Balance::Giving(g) => Some(g),
            _ => None,
        }
    }

    /// Whether the in-flight give, if any, is exactly `give`.
    pub(crate) fn is_giving(&self, give: Give) -> bool {
        self.giving().map(|g| g.give) == Some(give)
    }

    /// The split waiting on the ring to insert `free`, if any.
    fn split_waiting_on(&self, free: PeerId) -> Option<Giving> {
        self.giving()
            .filter(|g| matches!(g.give, Give::Upper(_)) && g.to == free && !g.sent)
    }

    /// Gives up on the in-flight give: range and items are untouched
    /// (copy-then-delete), parked writes resume, the thresholds are retried.
    pub(crate) fn abort_give(&mut self, ctx: LayerCtx, fx: &mut Effects<DsMsg>) {
        self.unblock_item_writes(ctx, fx);
        fx.timer(REBALANCE_RETRY_DELAY, DsMsg::RebalanceRetry);
    }

    /// Plans a split with the free peer `free`: chooses the boundary and the
    /// value for the new peer.
    ///
    /// Returns the value `free` joins the ring with, as this peer's
    /// successor: this peer's current value. It will receive the range
    /// `(boundary, value]`, and this peer's value becomes the boundary.
    ///
    /// Returns `None` (and ends the announced split) when a split is not
    /// possible (too few items or not live).
    pub fn begin_split(&mut self, free: PeerId) -> Option<PeerValue> {
        let high = self.range.high();
        let boundary = self.store.split_point(&self.range).filter(|b| {
            self.status == DsStatus::Live && *b != high.raw() && self.range.contains(*b)
        });
        let Some(boundary) = boundary else {
            self.balance = Balance::Idle;
            return None;
        };
        self.set_giving(Give::Upper(PeerValue(boundary)), free, false);
        Some(high)
    }

    fn set_giving(&mut self, give: Give, to: PeerId, sent: bool) {
        self.balance = Balance::Giving(Giving { give, to, sent });
    }

    /// Sends the split hand-off to the freshly joined peer `to`, if the split
    /// is waiting on it. Called by the index layer once the ring reports the
    /// `insertSucc` as complete. From this point until the hand-off is
    /// acknowledged, item writes at this peer are parked.
    pub fn send_handoff(&mut self, to: PeerId, fx: &mut Effects<DsMsg>) -> Option<CircularRange> {
        let give = self.split_waiting_on(to)?.give;
        let (range, _) = self.parts(give);
        let items = self.store.items_in_range(&range);
        self.set_giving(give, to, true);
        fx.send(to, DsMsg::HandoffInstall { range, items });
        Some(range)
    }

    /// Sends a merge request to the successor. Called by the index layer in
    /// response to [`DsEvent::MergeNeeded`].
    pub fn send_merge_request(&mut self, to: PeerId, fx: &mut Effects<DsMsg>) {
        self.balance = Balance::Requesting(to);
        fx.send(
            to,
            DsMsg::MergeRequest {
                requester_items: self.store.len(),
                requester_value: self.range.high(),
            },
        );
    }

    /// Successor side: decide between declining, redistributing, or a full
    /// merge.
    pub(crate) fn on_merge_request(
        &mut self,
        from: PeerId,
        requester_items: usize,
        fx: &mut Effects<DsMsg>,
    ) {
        if self.status != DsStatus::Live || self.is_rebalancing() || self.range.is_full() {
            fx.send(from, DsMsg::MergeDeclined);
            return;
        }
        let total = self.store.len() + requester_items;
        if total <= self.cfg.overflow_threshold() {
            self.start_full_give(from);
            return;
        }
        // Redistribute: hand the lower portion over so both end up with
        // roughly `total / 2` items.
        let count = (total / 2).saturating_sub(requester_items).max(1);
        let Some(new_boundary) = self.store.redistribute_point(count, &self.range) else {
            fx.send(from, DsMsg::MergeDeclined);
            return;
        };
        let new_boundary = PeerValue(new_boundary);
        let give = Give::Lower(new_boundary);
        let items = self.store.items_in_range(&self.parts(give).0);
        self.set_giving(give, from, true);
        fx.send(
            from,
            DsMsg::RedistributeGrant {
                items,
                new_boundary,
                granter_low: self.range.low(),
            },
        );
        self.arm_give_timeout(from, Some(new_boundary), 1, fx);
    }

    /// Announces a full give to the predecessor `to`. The index layer first
    /// runs the availability protections (extra-hop replication + ring
    /// leave) and then calls `send_merge_grant`.
    fn start_full_give(&mut self, to: PeerId) {
        self.set_giving(Give::All, to, false);
        self.emit(DsEvent::MergeGiveStarted { to });
    }

    /// Guards a give to the *predecessor*: its failure is invisible to the
    /// ping loop, so only a timer can end the wait for its acknowledgement.
    fn arm_give_timeout(
        &self,
        to: PeerId,
        boundary: Option<PeerValue>,
        attempt: u32,
        fx: &mut Effects<DsMsg>,
    ) {
        fx.timer(
            self.cfg.leave_absorb_timeout(),
            DsMsg::GiveTimeout {
                to,
                boundary,
                attempt,
            },
        );
    }

    /// Sends the full merge grant (copies; nothing is removed until the
    /// predecessor acknowledges). Called by the index layer once the
    /// availability protections (extra-hop replication and ring leave) have
    /// completed. Returns `None` if no full give is in flight.
    pub fn send_merge_grant(&mut self, fx: &mut Effects<DsMsg>) -> Option<PeerId> {
        let to = self.giving().filter(|g| g.give == Give::All)?.to;
        self.set_giving(Give::All, to, true);
        fx.send(
            to,
            DsMsg::MergeGrant {
                range: self.range,
                items: self.store.to_vec(),
                granter_value: self.range.high(),
            },
        );
        self.arm_give_timeout(to, None, 1, fx);
        Some(to)
    }

    /// Aborts an announced merge-give (for example when the ring refuses to
    /// start a `leave` because another operation is in flight). The requester
    /// is expected to be told via a `MergeDeclined` by the caller.
    pub fn cancel_merge_give(&mut self) {
        self.balance = Balance::Idle;
    }

    /// Giving side: the receiver's acknowledgement never arrived — it
    /// fail-stopped mid-transfer (it is this peer's predecessor, invisible
    /// to the ping loop).
    ///
    /// * A redistribute give is simply aborted: copy-then-delete means every
    ///   item is still here, and the requester's range is revived by its own
    ///   successor's takeover.
    /// * A merge give cannot be aborted — this peer has already left the
    ///   ring. It completes the give unilaterally instead: the pre-leave
    ///   additional-hop replication has pushed every item it holds, so the
    ///   takeover of this (now unowned) range revives them from replicas,
    ///   exactly as if this peer had failed.
    pub(crate) fn on_give_timeout(
        &mut self,
        ctx: LayerCtx,
        to: PeerId,
        boundary: Option<PeerValue>,
        attempt: u32,
        fx: &mut Effects<DsMsg>,
    ) {
        let give = boundary.map_or(Give::All, Give::Lower);
        let Some(giving) = self.giving().filter(|g| g.give == give) else {
            return; // resolved (acked, abort-acked or cancelled) in the meantime
        };
        match boundary {
            None if giving.to == to => self.write_or_defer(ctx, DeferredWrite::Finish(give), fx),
            None => {}
            // The requester may be alive with the grant parked behind scan
            // locks: ask it to drop the grant, and only abort unilaterally
            // if that, too, goes unanswered.
            Some(b) if attempt == 1 => {
                fx.send(to, DsMsg::RedistributeAbort { new_boundary: b });
                self.arm_give_timeout(to, boundary, 2, fx);
            }
            // Neither a RedistributeAck nor an abort ack within a whole
            // extra guard period: the requester is dead.
            Some(_) => self.abort_give(ctx, fx),
        }
    }

    // ------------------------------------------------------------------
    // the receiving side
    // ------------------------------------------------------------------

    /// A grant arrived: install it (deferred while scans pass). A grant from
    /// the successor also answers this peer's merge request; the peer stays
    /// busy until the grant is installed.
    pub(crate) fn on_grant(
        &mut self,
        ctx: LayerCtx,
        from: PeerId,
        give: Give,
        range: CircularRange,
        items: Vec<(u64, Item)>,
        fx: &mut Effects<DsMsg>,
    ) {
        if !matches!(give, Give::Upper(_)) && matches!(self.balance, Balance::Requesting(_)) {
            self.balance = Balance::Busy;
        }
        let install = DeferredWrite::Install {
            give,
            range,
            items,
            giver: from,
        };
        self.write_or_defer(ctx, install, fx);
    }

    /// Drops the grants from `from` parked behind scan locks whose kind
    /// `stale` picks out, releasing a peer that was only waiting for one to
    /// install. Returns whether any was dropped.
    fn drop_parked_grants(&mut self, from: PeerId, stale: impl Fn(Give) -> bool) -> bool {
        let before = self.deferred.len();
        self.deferred.retain(|w| match w {
            DeferredWrite::Install { give, giver, .. } => *giver != from || !stale(*give),
            DeferredWrite::Finish(_) => true,
        });
        let dropped = self.deferred.len() != before;
        if dropped && self.balance == Balance::Busy {
            self.balance = Balance::Idle;
        }
        dropped
    }

    /// Requester side: the granter's guard expired and it wants the grant
    /// back. If the grant is still parked behind scan locks, drop it and
    /// confirm; if it was already applied, ignore — our `RedistributeAck`
    /// is on its way (per-pair FIFO delivery guarantees the grant itself
    /// cannot still be in flight behind this abort).
    pub(crate) fn on_redistribute_abort(
        &mut self,
        from: PeerId,
        new_boundary: PeerValue,
        fx: &mut Effects<DsMsg>,
    ) {
        if self.drop_parked_grants(from, |give| give == Give::Lower(new_boundary)) {
            fx.send(from, DsMsg::RedistributeAbortAck { new_boundary });
            fx.timer(REBALANCE_RETRY_DELAY, DsMsg::RebalanceRetry);
        }
    }

    /// Requester side: the successor declined; retry later. Also unlocks a
    /// predecessor whose accepted voluntary-leave offer was aborted by the
    /// leaver (e.g. the ring refused to start the leave). The sender must
    /// match the operation being declined — a stale decline from an
    /// already-cleaned-up operation must not unlock an unrelated in-flight
    /// one.
    pub(crate) fn on_merge_declined(&mut self, from: PeerId, fx: &mut Effects<DsMsg>) {
        match self.balance {
            Balance::Requesting(p) | Balance::Absorbing(p) if p == from => {
                self.balance = Balance::Idle;
                fx.timer(REBALANCE_RETRY_DELAY, DsMsg::RebalanceRetry);
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // voluntary leave
    // ------------------------------------------------------------------

    /// Leaver side: offer this peer's entire range to its predecessor `pred`.
    ///
    /// The actual hand-off only starts once the predecessor acknowledges: the
    /// ack locks the predecessor against concurrent splits/merges, so no new
    /// peer can be inserted between the two while the grant is in flight
    /// (the same protection `Balance::Busy` gives the requester of an
    /// underflow-driven merge). Returns `false` when this peer cannot leave
    /// right now (free, rebalancing, sole owner of the ring, …).
    pub fn begin_voluntary_leave(&mut self, pred: PeerId, fx: &mut Effects<DsMsg>) -> bool {
        if self.status != DsStatus::Live
            || self.is_rebalancing()
            || self.leave_offered_to.is_some()
            || self.range.is_full()
            || pred == self.id
        {
            return false;
        }
        self.leave_offered_to = Some(pred);
        fx.send(
            pred,
            DsMsg::LeaveOffer {
                leaver_value: self.range.high(),
            },
        );
        // The predecessor's failure is invisible to the ping loop (it is
        // behind this peer); time the offer out so a later leave can retry.
        fx.timer(
            self.cfg.leave_absorb_timeout(),
            DsMsg::LeaveOfferTimeout { to: pred },
        );
        true
    }

    /// Predecessor side: accept (and lock) or decline a voluntary-leave
    /// offer. The offer is only accepted when it comes from this peer's
    /// *direct* successor as currently cached — anything else means the
    /// topology between the two has changed and absorbing the range would
    /// corrupt the partition. Only the peer identity is compared: the cached
    /// successor *value* reflects the moment the successor was announced and
    /// goes stale when the successor later splits (its value moves down).
    pub(crate) fn on_leave_offer(&mut self, from: PeerId, fx: &mut Effects<DsMsg>) {
        let from_direct_successor = self.succ.map(|(p, _)| p) == Some(from);
        if self.status != DsStatus::Live || self.is_rebalancing() || !from_direct_successor {
            fx.send(from, DsMsg::LeaveOfferDeclined);
            return;
        }
        self.balance = Balance::Absorbing(from);
        fx.send(from, DsMsg::LeaveOfferAck);
        // Guard against the leaver failing mid-leave: unlock if the merge
        // grant never arrives.
        fx.timer(
            self.cfg.leave_absorb_timeout(),
            DsMsg::LeaveAbsorbTimeout { from },
        );
    }

    /// Leaver side: the predecessor is locked; run the availability
    /// protections and grant, exactly like an underflow-driven full merge.
    pub(crate) fn on_leave_offer_ack(&mut self, from: PeerId, fx: &mut Effects<DsMsg>) {
        if self.leave_offered_to != Some(from) {
            return;
        }
        self.leave_offered_to = None;
        if self.status != DsStatus::Live || self.is_rebalancing() || self.range.is_full() {
            // A split/merge started while the offer was in flight: abort the
            // leave and release the locked predecessor.
            fx.send(from, DsMsg::MergeDeclined);
            return;
        }
        self.start_full_give(from);
    }

    /// Leaver side: the predecessor `pred` declined the offer, or never
    /// answered it (failed, or the cached pointer was stale). Stay in the
    /// ring; a later leave can offer again.
    pub(crate) fn clear_leave_offer(&mut self, pred: PeerId) {
        if self.leave_offered_to == Some(pred) {
            self.leave_offered_to = None;
        }
    }

    /// Predecessor side: the merge grant never arrived (the leaver probably
    /// failed mid-leave); unlock.
    pub(crate) fn on_leave_absorb_timeout(&mut self, from: PeerId) {
        if self.balance == Balance::Absorbing(from) {
            self.balance = Balance::Idle;
            self.recheck_balance();
        }
    }

    // ------------------------------------------------------------------
    // deferred-write application
    // ------------------------------------------------------------------

    /// Applies a (possibly previously deferred) range/item mutation.
    pub(crate) fn apply_write(
        &mut self,
        ctx: LayerCtx,
        write: DeferredWrite,
        fx: &mut Effects<DsMsg>,
    ) {
        match write {
            DeferredWrite::Install {
                give,
                range,
                items,
                giver,
            } => {
                for (mapped, item) in items {
                    self.emit(DsEvent::ItemStored { item: item.clone() });
                    self.store.insert(mapped, item);
                }
                if let Give::Upper(_) = give {
                    // A freshly joined peer owns nothing yet.
                    self.status = DsStatus::Live;
                    self.range = range;
                } else {
                    self.range = self.range.merge_with_successor(&range).unwrap_or_else(|| {
                        // The grant does not start where this range ends:
                        // the giver is normally ring-adjacent, but peers in
                        // between failed and their takeover had not run yet.
                        // Absorbing bridges their unowned stretch — report
                        // it so the layer above revives its items from
                        // replicas, exactly like a failure takeover.
                        let gap = CircularRange::new(self.range.high(), range.low());
                        self.emit(DsEvent::RangeBridged { gap });
                        CircularRange::new(self.range.low(), range.high())
                    });
                    // The wait for this grant is over, whether it answered a
                    // merge request or a leave offer.
                    if self.balance == Balance::Busy || self.balance == Balance::Absorbing(giver) {
                        self.balance = Balance::Idle;
                    }
                }
                self.emit(DsEvent::RangeChanged {
                    range: self.range,
                    value: self.range.high(),
                    grew: true,
                });
                let ack = match give {
                    Give::Upper(_) => DsMsg::HandoffAck,
                    Give::Lower(new_boundary) => DsMsg::RedistributeAck { new_boundary },
                    Give::All => {
                        self.emit(DsEvent::AbsorbedSuccessor { granter: giver });
                        DsMsg::MergeGrantAck
                    }
                };
                fx.send(giver, ack);
                // Absorbing (a voluntary leaver above all) can overflow a
                // peer of any size; re-check so the split fires without
                // waiting for the next item write.
                self.recheck_balance();
            }
            DeferredWrite::Finish(give) => {
                // Staleness is per kind. A split completion carries its own
                // boundary and applies even after `on_peer_failed` cleared
                // the record. A redistribute ack must match the record: it
                // may have been aborted by the give timeout, or belong to an
                // earlier give, and would cut the range at the wrong place.
                // A full give completes once (give timeout + late ack).
                let stale = match give {
                    Give::Upper(_) => false,
                    Give::Lower(_) => !self.is_giving(give),
                    Give::All => self.status == DsStatus::Free,
                };
                if stale {
                    return;
                }
                let (moved, kept) = self.parts(give);
                for (mapped, item) in self.store.take_range(&moved) {
                    self.emit(DsEvent::ItemRemoved {
                        item: item.id,
                        mapped,
                    });
                }
                self.range = kept;
                if give == Give::All {
                    self.status = DsStatus::Free;
                    self.emit(DsEvent::BecameFree);
                } else {
                    self.emit(DsEvent::RangeChanged {
                        range: self.range,
                        value: self.range.high(),
                        grew: false,
                    });
                }
                // A free peer is in no hand-off. A split completion that
                // outlived its record leaves a newer hand-off alone.
                if give == Give::All || self.is_giving(give) {
                    self.unblock_item_writes(ctx, fx);
                }
                self.recheck_balance();
            }
        }
    }

    /// Ends the in-flight give and re-dispatches the item writes that were
    /// parked while it was on the wire.
    fn unblock_item_writes(&mut self, ctx: LayerCtx, fx: &mut Effects<DsMsg>) {
        self.balance = Balance::Idle;
        let parked = std::mem::take(&mut self.blocked_item_writes);
        for (from, msg) in parked {
            self.dispatch(ctx, from, msg, fx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::QueryId;
    use pepper_net::{Effect, ProtocolLayer, SimTime};
    use pepper_types::{Item, SearchKey, SystemConfig};

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

    /// Delivers `msg` from peer `from` through the layer's message dispatch.
    fn deliver(ds: &mut DataStoreState, from: u64, msg: DsMsg, fx: &mut Effects<DsMsg>) {
        ds.handle(ctx(ds.id().raw()), PeerId(from), msg, fx);
    }

    // -------------------------------------------------------------- split

    #[test]
    fn split_plan_and_handoff_roundtrip() {
        // sf = 2; 6 items overflow the peer.
        let mut q = live_peer(1, 0, 100, &[10, 20, 30, 40, 50, 60]);
        q.check_overflow();
        assert!(q.is_rebalancing());

        assert_eq!(q.begin_split(PeerId(9)), Some(PeerValue(100)));

        // The ring join happens here (index layer); then the hand-off. Only
        // the free peer the split was planned with gets it.
        let mut fx = Effects::new();
        assert_eq!(q.send_handoff(PeerId(8), &mut fx), None);
        let moved = q.send_handoff(PeerId(9), &mut fx).unwrap();
        assert_eq!(moved, CircularRange::new(30u64, 100u64));
        let handoff = fx.drain();
        let (range, items) = match &handoff[0] {
            Effect::Send {
                to,
                msg: DsMsg::HandoffInstall { range, items },
            } => {
                assert_eq!(*to, PeerId(9));
                (*range, items.clone())
            }
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(items.len(), 3); // 40, 50, 60 move
                                    // Items are still at the splitter until the ack (copy-then-delete).
        assert_eq!(q.item_count(), 6);

        // The new peer installs and acks.
        let mut n = DataStoreState::new_free(PeerId(9), SystemConfig::fast());
        n.became_ring_member(PeerValue(100));
        let mut nfx = Effects::new();
        deliver(&mut n, 1, DsMsg::HandoffInstall { range, items }, &mut nfx);
        assert_eq!(n.status(), DsStatus::Live);
        assert_eq!(n.item_count(), 3);
        assert_eq!(n.range(), CircularRange::new(30u64, 100u64));
        assert!(nfx.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::HandoffAck } if *to == PeerId(1)
        )));

        // The splitter completes on the ack.
        let mut qfx = Effects::new();
        deliver(&mut q, 9, DsMsg::HandoffAck, &mut qfx);
        assert_eq!(q.item_count(), 3);
        assert_eq!(q.range(), CircularRange::new(0u64, 30u64));
        assert!(!q.is_rebalancing());
        // Every item is at exactly one of the two peers.
        for k in [10u64, 20, 30, 40, 50, 60] {
            let at_q = q.local_items_mapped().iter().any(|(m, _)| *m == k);
            let at_n = n.local_items_mapped().iter().any(|(m, _)| *m == k);
            assert!(at_q ^ at_n, "item {k} must be at exactly one peer");
        }
    }

    #[test]
    fn split_of_full_range_peer() {
        let mut q = live_peer(1, 0, 0, &[]);
        q.range = CircularRange::full(100u64);
        for k in [10u64, 20, 30, 40, 50] {
            q.store.insert(k, item(k));
        }
        assert_eq!(q.begin_split(PeerId(9)), Some(PeerValue(100)));
        let mut fx = Effects::new();
        let moved = q.send_handoff(PeerId(9), &mut fx).unwrap();
        assert_eq!(moved, CircularRange::new(20u64, 100u64));
        deliver(&mut q, 9, DsMsg::HandoffAck, &mut fx);
        assert_eq!(q.range(), CircularRange::new(100u64, 20u64));
        assert_eq!(q.item_count(), 2);
    }

    #[test]
    fn split_with_too_few_items_is_cancelled() {
        let mut q = live_peer(1, 0, 100, &[10]);
        q.balance = Balance::Busy;
        assert!(q.begin_split(PeerId(9)).is_none());
        assert!(!q.is_rebalancing());
    }

    #[test]
    fn item_writes_are_parked_during_handoff() {
        let mut q = live_peer(1, 0, 100, &[10, 20, 30, 40, 50, 60]);
        q.check_overflow();
        q.begin_split(PeerId(9)).unwrap();
        let mut fx = Effects::new();
        q.send_handoff(PeerId(9), &mut fx).unwrap();

        // An insert arriving mid-hand-off is parked, not lost and not stored.
        let mut fx2 = Effects::new();
        q.handle(
            ctx(1),
            PeerId(5),
            DsMsg::InsertItem {
                item: item(45),
                reply_to: PeerId(5),
            },
            &mut fx2,
        );
        assert!(fx2.is_empty());
        assert_eq!(q.item_count(), 6);

        // After the ack the parked insert is re-dispatched; since 45 is now
        // outside the shrunk range it bounces back for re-routing.
        let mut fx3 = Effects::new();
        deliver(&mut q, 9, DsMsg::HandoffAck, &mut fx3);
        assert!(fx3.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::NotResponsible { mapped: 45 } } if *to == PeerId(5)
        )));
    }

    // ---------------------------------------------------- merge / redistribute

    #[test]
    fn redistribute_moves_boundary_and_items() {
        // Requester q owns (0, 30] with 1 item; granter s owns (30, 100] with
        // 6 items. total = 7 > 2*sf = 4, so s redistributes.
        let mut q = live_peer(1, 0, 30, &[10]);
        let mut s = live_peer(2, 30, 100, &[40, 50, 60, 70, 80, 90]);
        q.check_underflow();
        assert!(q.is_rebalancing());

        let mut fx = Effects::new();
        q.send_merge_request(PeerId(2), &mut fx);
        let req = fx.drain().remove(0);
        let (req_items, req_value) = match req {
            Effect::Send {
                msg:
                    DsMsg::MergeRequest {
                        requester_items,
                        requester_value,
                    },
                ..
            } => (requester_items, requester_value),
            other => panic!("unexpected {other:?}"),
        };

        let mut sfx = Effects::new();
        deliver(
            &mut s,
            1,
            DsMsg::MergeRequest {
                requester_items: req_items,
                requester_value: req_value,
            },
            &mut sfx,
        );
        let grant = sfx.drain().remove(0);
        let (items, new_boundary) = match grant {
            Effect::Send {
                to,
                msg:
                    DsMsg::RedistributeGrant {
                        items,
                        new_boundary,
                        granter_low,
                    },
            } => {
                assert_eq!(to, PeerId(1));
                assert_eq!(granter_low, PeerValue(30), "granter's low end rides along");
                (items, new_boundary)
            }
            other => panic!("unexpected {other:?}"),
        };
        // total = 7, target ~3 each: s gives 2 items (40, 50), boundary 50.
        assert_eq!(new_boundary, PeerValue(50));
        assert_eq!(items.len(), 2);
        // Copy-then-delete: s still holds them.
        assert_eq!(s.item_count(), 6);

        // Requester installs and acks.
        let mut qfx = Effects::new();
        deliver(
            &mut q,
            2,
            DsMsg::RedistributeGrant {
                items,
                new_boundary,
                granter_low: PeerValue(30),
            },
            &mut qfx,
        );
        assert_eq!(q.item_count(), 3);
        assert_eq!(q.range(), CircularRange::new(0u64, 50u64));
        assert!(!q.is_rebalancing());
        assert!(qfx.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::RedistributeAck { .. } } if *to == PeerId(2)
        )));

        // Granter finishes.
        let mut sfx2 = Effects::new();
        deliver(
            &mut s,
            1,
            DsMsg::RedistributeAck { new_boundary },
            &mut sfx2,
        );
        assert_eq!(s.item_count(), 4);
        assert_eq!(s.range(), CircularRange::new(50u64, 100u64));
        assert!(!s.is_rebalancing());
    }

    #[test]
    fn small_successor_grants_full_merge() {
        // total = 1 + 2 = 3 <= 2*sf = 4: full merge.
        let mut q = live_peer(1, 0, 30, &[10]);
        let mut s = live_peer(2, 30, 100, &[40, 90]);
        let mut fx = Effects::new();

        deliver(
            &mut s,
            1,
            DsMsg::MergeRequest {
                requester_items: 1,
                requester_value: PeerValue(30),
            },
            &mut fx,
        );
        assert!(
            fx.is_empty(),
            "full merge defers the grant to the index layer"
        );
        assert!(matches!(
            s.drain_events()[0],
            DsEvent::MergeGiveStarted { to } if to == PeerId(1)
        ));
        assert!(s.is_rebalancing());

        // Index layer has run leave + extra-hop replication; now grant.
        let mut sfx = Effects::new();
        assert_eq!(s.send_merge_grant(&mut sfx), Some(PeerId(1)));
        let (range, items, gvalue) = match sfx.drain().remove(0) {
            Effect::Send {
                msg:
                    DsMsg::MergeGrant {
                        range,
                        items,
                        granter_value,
                    },
                ..
            } => (range, items, granter_value),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(gvalue, PeerValue(100));

        // Requester absorbs.
        let mut qfx = Effects::new();
        q.balance = Balance::Busy;
        deliver(
            &mut q,
            2,
            DsMsg::MergeGrant {
                range,
                items,
                granter_value: gvalue,
            },
            &mut qfx,
        );
        assert_eq!(q.range(), CircularRange::new(0u64, 100u64));
        assert_eq!(q.item_count(), 3);
        assert!(q
            .drain_events()
            .iter()
            .any(|e| matches!(e, DsEvent::AbsorbedSuccessor { granter } if *granter == PeerId(2))));
        assert!(qfx.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::MergeGrantAck } if *to == PeerId(2)
        )));

        // Granter becomes free.
        let mut sfx2 = Effects::new();
        deliver(&mut s, 1, DsMsg::MergeGrantAck, &mut sfx2);
        assert_eq!(s.status(), DsStatus::Free);
        assert_eq!(s.item_count(), 0);
        assert!(s
            .drain_events()
            .iter()
            .any(|e| matches!(e, DsEvent::BecameFree)));
    }

    #[test]
    fn busy_successor_declines_and_requester_retries() {
        let mut s = live_peer(2, 30, 100, &[40, 50, 60, 70, 80]);
        s.balance = Balance::Busy;
        let mut fx = Effects::new();
        deliver(
            &mut s,
            1,
            DsMsg::MergeRequest {
                requester_items: 1,
                requester_value: PeerValue(30),
            },
            &mut fx,
        );
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: DsMsg::MergeDeclined,
                ..
            }
        )));

        let mut q = live_peer(1, 0, 30, &[10]);
        q.balance = Balance::Requesting(PeerId(2));
        let mut qfx = Effects::new();
        // A decline from an unrelated peer is ignored.
        deliver(&mut q, 9, DsMsg::MergeDeclined, &mut qfx);
        assert!(q.is_rebalancing());
        assert!(qfx.is_empty());
        // The decline from the peer actually asked releases the rebalance.
        deliver(&mut q, 2, DsMsg::MergeDeclined, &mut qfx);
        assert!(!q.is_rebalancing());
        assert!(qfx.iter().any(|e| matches!(
            e,
            Effect::Timer {
                msg: DsMsg::RebalanceRetry,
                ..
            }
        )));
    }

    #[test]
    fn rebalance_retry_rechecks_thresholds() {
        let mut q = live_peer(1, 0, 30, &[10]);
        deliver(&mut q, 1, DsMsg::RebalanceRetry, &mut Effects::new());
        assert!(q
            .drain_events()
            .iter()
            .any(|e| matches!(e, DsEvent::MergeNeeded { .. })));
    }

    #[test]
    fn deferred_merge_grant_waits_for_scan() {
        let mut q = live_peer(1, 0, 30, &[10]);
        q.balance = Balance::Busy;
        q.acquire_scan_lock();
        let mut fx = Effects::new();
        deliver(
            &mut q,
            2,
            DsMsg::MergeGrant {
                range: CircularRange::new(30u64, 100u64),
                items: vec![(40, item(40))],
                granter_value: PeerValue(100),
            },
            &mut fx,
        );
        // Nothing applied, no ack sent while the scan lock is held.
        assert_eq!(q.range(), CircularRange::new(0u64, 30u64));
        assert!(fx.is_empty());
        q.release_scan_lock(ctx(1), &mut fx);
        assert_eq!(q.range(), CircularRange::new(0u64, 100u64));
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: DsMsg::MergeGrantAck,
                ..
            }
        )));
    }

    #[test]
    fn cancel_rebalance_schedules_retry() {
        let mut q = live_peer(1, 0, 30, &[10]);
        q.balance = Balance::Busy;
        let mut fx = Effects::new();
        q.cancel_rebalance(&mut fx);
        assert!(!q.is_rebalancing());
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Timer {
                msg: DsMsg::RebalanceRetry,
                ..
            }
        )));
    }

    #[test]
    fn merge_request_to_full_range_peer_is_declined() {
        let mut s = DataStoreState::new_first(PeerId(2), PeerValue(100), SystemConfig::fast());
        s.store.insert(40, item(40));
        let mut fx = Effects::new();
        deliver(
            &mut s,
            1,
            DsMsg::MergeRequest {
                requester_items: 0,
                requester_value: PeerValue(30),
            },
            &mut fx,
        );
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: DsMsg::MergeDeclined,
                ..
            }
        )));
    }

    #[test]
    fn dead_handoff_receiver_releases_the_split() {
        let mut q = live_peer(1, 0, 100, &[10, 20, 30, 40, 50, 60]);
        q.check_overflow();
        q.begin_split(PeerId(9)).unwrap();
        let mut fx = Effects::new();
        q.send_handoff(PeerId(9), &mut fx).unwrap();
        // An insert arriving mid-hand-off is parked.
        q.handle(
            ctx(1),
            PeerId(5),
            DsMsg::InsertItem {
                item: item(45),
                reply_to: PeerId(5),
            },
            &mut fx,
        );
        assert!(q.is_item_writes_blocked());

        // The receiver fail-stops: the split is released, items are intact,
        // the parked write resumes — and immediately re-declares the
        // overflow, so a fresh split (with a different free peer) starts.
        let mut fx2 = Effects::new();
        q.drain_events();
        q.on_peer_failed(ctx(1), PeerId(9), &mut fx2);
        assert!(!q.is_item_writes_blocked());
        assert_eq!(q.item_count(), 7, "all items (and the parked one) remain");
        assert!(q
            .drain_events()
            .iter()
            .any(|e| matches!(e, DsEvent::SplitNeeded { .. })));
        assert!(fx2.iter().any(|e| matches!(
            e,
            Effect::Timer {
                msg: DsMsg::RebalanceRetry,
                ..
            }
        )));
    }

    #[test]
    fn parked_split_completion_survives_the_receivers_failure() {
        let mut q = live_peer(1, 0, 100, &[10, 20, 30, 40, 50, 60]);
        q.check_overflow();
        q.begin_split(PeerId(9)).unwrap();
        let mut fx = Effects::new();
        q.send_handoff(PeerId(9), &mut fx).unwrap();
        // The receiver installed and acknowledged, but a scan holds the
        // range lock here: the completion is parked.
        q.acquire_scan_lock();
        deliver(&mut q, 9, DsMsg::HandoffAck, &mut fx);
        assert_eq!(q.range(), CircularRange::new(0u64, 100u64));
        // The receiver is then declared failed: the record is cleared and
        // parked item writes resume...
        q.on_peer_failed(ctx(1), PeerId(9), &mut fx);
        assert!(!q.is_item_writes_blocked());
        // ...but the receiver did install, so the parked completion must
        // still shrink the range — otherwise both peers own (30, 100].
        q.release_scan_lock(ctx(1), &mut fx);
        assert_eq!(q.range(), CircularRange::new(0u64, 30u64));
        assert_eq!(q.item_count(), 3);
    }

    #[test]
    fn a_stale_split_completion_keeps_the_newer_hand_off() {
        let mut q = live_peer(1, 0, 100, &[10, 20, 30, 40, 50, 60]);
        q.check_overflow();
        q.begin_split(PeerId(9)).unwrap();
        let mut fx = Effects::new();
        q.send_handoff(PeerId(9), &mut fx).unwrap();
        // The receiver installs and acks, the completion parks behind a scan
        // lock, and then the receiver is declared failed: the split aborts.
        q.acquire_scan_lock();
        deliver(&mut q, 9, DsMsg::HandoffAck, &mut fx);
        q.on_peer_failed(ctx(1), PeerId(9), &mut fx);
        assert!(!q.is_rebalancing());
        // Deletes drain the peer below sf and it asks its successor to merge.
        for k in [20, 30, 40, 50, 60] {
            let delete = DsMsg::DeleteItem {
                mapped: k,
                reply_to: PeerId(5),
            };
            deliver(&mut q, 5, delete, &mut fx);
        }
        q.send_merge_request(PeerId(2), &mut fx);
        q.drain_events();

        // The parked completion lands: the receiver did install, so the
        // range shrinks, but the merge request is still the hand-off in
        // flight and is not announced a second time.
        q.release_scan_lock(ctx(1), &mut fx);
        assert_eq!(q.range(), CircularRange::new(0u64, 30u64));
        assert!(q.is_rebalancing());
        assert!(!q
            .drain_events()
            .iter()
            .any(|e| matches!(e, DsEvent::MergeNeeded { .. })));
        // Its counterpart's decline still ends it.
        deliver(&mut q, 2, DsMsg::MergeDeclined, &mut fx);
        assert!(!q.is_rebalancing());
    }

    #[test]
    fn a_split_is_cancelled_only_for_its_own_free_peer() {
        let mut q = live_peer(1, 0, 100, &[10, 20, 30, 40, 50, 60]);
        q.check_overflow();
        q.begin_split(PeerId(9)).unwrap();
        let mut fx = Effects::new();
        // Another peer's aborted insert or failure leaves the split alone.
        assert!(!q.cancel_split(PeerId(8), &mut fx));
        q.on_peer_failed(ctx(1), PeerId(8), &mut fx);
        assert!(q.is_rebalancing() && fx.is_empty());
        // The ring aborts the insert of the split's free peer.
        assert!(q.cancel_split(PeerId(9), &mut fx));
        assert!(!q.is_rebalancing());
        assert!(q.send_handoff(PeerId(9), &mut fx).is_none());
        // The free peer dies before it joined.
        q.check_overflow();
        q.begin_split(PeerId(9)).unwrap();
        q.on_peer_failed(ctx(1), PeerId(9), &mut fx);
        assert!(!q.is_rebalancing());
        // Each cancellation armed a retry; no hand-off was sent.
        let retries = fx
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Effect::Timer {
                        msg: DsMsg::RebalanceRetry,
                        ..
                    }
                )
            })
            .count();
        assert_eq!((retries, fx.len()), (2, 2));
    }

    #[test]
    fn dead_merge_target_unsticks_the_requester() {
        let mut q = live_peer(1, 0, 30, &[10]);
        q.check_underflow();
        let mut fx = Effects::new();
        q.send_merge_request(PeerId(2), &mut fx);
        assert!(q.is_rebalancing());
        // An unrelated peer's failure changes nothing.
        q.on_peer_failed(ctx(1), PeerId(7), &mut fx);
        assert!(q.is_rebalancing());
        // The asked successor's failure releases the rebalance.
        let mut fx2 = Effects::new();
        q.on_peer_failed(ctx(1), PeerId(2), &mut fx2);
        assert!(!q.is_rebalancing());
        assert!(fx2.iter().any(|e| matches!(
            e,
            Effect::Timer {
                msg: DsMsg::RebalanceRetry,
                ..
            }
        )));
    }

    #[test]
    fn give_timeout_aborts_redistribute_and_completes_merge_give() {
        // Redistribute granter: requester dies before the ack.
        let mut s = live_peer(2, 30, 100, &[40, 50, 60, 70, 80, 90]);
        let mut fx = Effects::new();
        deliver(
            &mut s,
            1,
            DsMsg::MergeRequest {
                requester_items: 1,
                requester_value: PeerValue(30),
            },
            &mut fx,
        );
        assert!(s.is_rebalancing() && s.is_item_writes_blocked());
        // A stale guard for a different boundary is ignored.
        s.on_give_timeout(ctx(2), PeerId(1), Some(PeerValue(99)), 1, &mut fx);
        assert!(s.is_rebalancing());
        // First matching firing only *asks* the requester to drop the grant
        // (it may be alive with the grant parked behind scan locks).
        let mut fx_ask = Effects::new();
        s.on_give_timeout(ctx(2), PeerId(1), Some(PeerValue(50)), 1, &mut fx_ask);
        assert!(s.is_rebalancing());
        assert!(fx_ask.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::RedistributeAbort { .. } } if *to == PeerId(1)
        )));
        // The second firing (still unanswered) aborts unilaterally: items
        // intact, writes unblocked.
        s.on_give_timeout(ctx(2), PeerId(1), Some(PeerValue(50)), 2, &mut fx);
        assert!(!s.is_rebalancing() && !s.is_item_writes_blocked());
        assert_eq!(s.item_count(), 6);
        // The requester's late ack must not shrink the range a second time.
        deliver(
            &mut s,
            1,
            DsMsg::RedistributeAck {
                new_boundary: PeerValue(50),
            },
            &mut fx,
        );
        assert_eq!(s.item_count(), 6);
        assert_eq!(s.range(), CircularRange::new(30u64, 100u64));

        // Merge-give granter: requester dies before MergeGrantAck. The
        // granter has already ring-departed, so it completes unilaterally
        // (items survive as replicas pushed by the pre-leave protection).
        let mut g = live_peer(3, 30, 100, &[40, 90]);
        let mut gfx = Effects::new();
        deliver(
            &mut g,
            1,
            DsMsg::MergeRequest {
                requester_items: 1,
                requester_value: PeerValue(30),
            },
            &mut gfx,
        );
        g.drain_events();
        g.send_merge_grant(&mut gfx);
        // Guard for a different requester is ignored.
        g.on_give_timeout(ctx(3), PeerId(9), None, 1, &mut gfx);
        assert_eq!(g.status(), DsStatus::Live);
        g.on_give_timeout(ctx(3), PeerId(1), None, 1, &mut gfx);
        assert_eq!(g.status(), DsStatus::Free);
        assert!(g
            .drain_events()
            .iter()
            .any(|e| matches!(e, DsEvent::BecameFree)));
        // A late ack after the forced completion is a no-op.
        deliver(&mut g, 1, DsMsg::MergeGrantAck, &mut gfx);
        assert_eq!(g.status(), DsStatus::Free);
    }

    #[test]
    fn redistribute_across_a_dead_peers_range_reports_the_bridged_gap() {
        // Ring was q(0,30] → dead(30,60] → s(60,100]. The dead peer's
        // takeover has not run when q underflows and s grants a
        // redistribution: the grant's boundary move silently covers the
        // dead stretch (30, 60]. The requester must report it as bridged
        // so the index layer revives its items from replicas — without
        // this, every item of the dead peer is lost even though replicas
        // exist (found by the harness at scale, seed 1000 / large
        // horizon).
        let mut q = live_peer(1, 0, 30, &[10]);
        q.balance = Balance::Busy;
        let mut qfx = Effects::new();
        deliver(
            &mut q,
            2,
            DsMsg::RedistributeGrant {
                items: vec![(70, item(70))],
                new_boundary: PeerValue(80),
                granter_low: PeerValue(60),
            },
            &mut qfx,
        );
        assert_eq!(q.range(), CircularRange::new(0u64, 80u64));
        let events = q.drain_events();
        let bridged = events
            .iter()
            .find_map(|e| match e {
                DsEvent::RangeBridged { gap } => Some(*gap),
                _ => None,
            })
            .expect("bridged gap must be reported");
        assert_eq!(bridged, CircularRange::new(30u64, 60u64));
        // An adjacent grant reports nothing.
        let mut q2 = live_peer(1, 0, 30, &[10]);
        q2.balance = Balance::Busy;
        let mut q2fx = Effects::new();
        deliver(
            &mut q2,
            2,
            DsMsg::RedistributeGrant {
                items: vec![(40, item(40))],
                new_boundary: PeerValue(50),
                granter_low: PeerValue(30),
            },
            &mut q2fx,
        );
        assert!(!q2
            .drain_events()
            .iter()
            .any(|e| matches!(e, DsEvent::RangeBridged { .. })));
    }

    #[test]
    fn full_merge_across_a_dead_peers_range_reports_the_bridged_gap_once() {
        // Same ring as above, but s(60,100] gives up its whole range.
        let mut q = live_peer(1, 0, 30, &[10]);
        q.balance = Balance::Busy;
        let mut qfx = Effects::new();
        deliver(
            &mut q,
            2,
            DsMsg::MergeGrant {
                range: CircularRange::new(60u64, 100u64),
                items: vec![(70, item(70))],
                granter_value: PeerValue(100),
            },
            &mut qfx,
        );
        assert_eq!(q.range(), CircularRange::new(0u64, 100u64));
        let gaps: Vec<CircularRange> = q
            .drain_events()
            .iter()
            .filter_map(|e| match e {
                DsEvent::RangeBridged { gap } => Some(*gap),
                _ => None,
            })
            .collect();
        assert_eq!(gaps, vec![CircularRange::new(30u64, 60u64)]);
    }

    #[test]
    fn every_give_partitions_the_range_and_conserves_items() {
        // (giver range, its keys, boundary, predecessor range, its keys):
        // plain, wrapping and full-circle givers. The predecessor of a
        // full-circle giver owns nothing yet.
        let full = CircularRange::full(100u64);
        let cases = [
            (
                CircularRange::new(30u64, 100u64),
                vec![40, 50, 60, 70],
                50,
                CircularRange::new(0u64, 30u64),
                vec![10],
            ),
            (
                CircularRange::new(200u64, 50u64),
                vec![210, 250, 10, 40],
                10,
                CircularRange::new(100u64, 200u64),
                vec![150],
            ),
            (
                full,
                vec![120, 250, 10, 40],
                250,
                CircularRange::empty(100u64),
                vec![],
            ),
        ];
        let probes = [
            0,
            5,
            10,
            11,
            30,
            31,
            50,
            51,
            100,
            101,
            150,
            200,
            201,
            250,
            251,
            u64::MAX,
        ];
        for (g_range, g_keys, boundary, p_range, p_keys) in cases {
            let b = PeerValue(boundary);
            for give in [Give::Upper(b), Give::Lower(b), Give::All] {
                let mut g = live_peer(2, 0, 0, &g_keys);
                g.range = g_range;
                g.balance = Balance::Giving(Giving {
                    give,
                    to: PeerId(1),
                    sent: true,
                });
                // A split goes to a freshly joined successor, the other
                // gives to the predecessor.
                let mut r = if let Give::Upper(_) = give {
                    let mut n = DataStoreState::new_free(PeerId(1), SystemConfig::fast());
                    n.became_ring_member(g_range.high());
                    n
                } else {
                    let mut p = live_peer(1, 0, 0, &p_keys);
                    p.range = p_range;
                    p
                };
                let (owned_before, mut keys_before) = (
                    [g.range(), r.range()],
                    [g.snapshot().mapped_keys, r.snapshot().mapped_keys].concat(),
                );

                // What the giver puts on the wire, then install and finish.
                let moved = g.parts(give).0;
                let install = DeferredWrite::Install {
                    give,
                    range: if give == Give::All { g_range } else { moved },
                    items: g.store.items_in_range(&moved),
                    giver: PeerId(2),
                };
                let mut fx = Effects::new();
                r.apply_write(ctx(1), install, &mut fx);
                g.apply_write(ctx(2), DeferredWrite::Finish(give), &mut fx);

                let what = format!("{give:?} of {g_range:?}");
                for v in probes {
                    let owners = |ranges: [CircularRange; 2]| {
                        ranges.iter().filter(|range| range.contains(v)).count()
                    };
                    assert_eq!(
                        owners([g.range(), r.range()]),
                        owners(owned_before),
                        "{what}: value {v} must keep exactly its one owner"
                    );
                }
                let mut keys_after = [g.snapshot().mapped_keys, r.snapshot().mapped_keys].concat();
                keys_before.sort_unstable();
                keys_after.sort_unstable();
                assert_eq!(
                    keys_after, keys_before,
                    "{what}: no item lost or duplicated"
                );
                for ds in [&g, &r] {
                    assert!(
                        ds.items_mapped().all(|(k, _)| ds.range().contains(k)),
                        "{what}: every item sits inside its holder's range"
                    );
                }
                assert_eq!(g.giving(), None, "{what}: the record is cleared");
                assert_eq!(g.status() == DsStatus::Free, give == Give::All);
            }
        }
    }

    #[test]
    fn slow_requester_drops_parked_grant_on_abort_and_granter_keeps_range() {
        // Requester q holds the grant parked behind a scan lock when the
        // granter's guard expires and the abort arrives.
        let mut q = live_peer(1, 0, 30, &[10]);
        q.balance = Balance::Busy;
        q.acquire_scan_lock();
        let mut qfx = Effects::new();
        deliver(
            &mut q,
            2,
            DsMsg::RedistributeGrant {
                items: vec![(40, item(40))],
                new_boundary: PeerValue(50),
                granter_low: PeerValue(30),
            },
            &mut qfx,
        );
        assert_eq!(q.range(), CircularRange::new(0u64, 30u64), "still parked");

        // Abort for a different boundary is ignored (nothing dropped).
        let mut qfx2 = Effects::new();
        deliver(
            &mut q,
            2,
            DsMsg::RedistributeAbort {
                new_boundary: PeerValue(99),
            },
            &mut qfx2,
        );
        assert!(qfx2.is_empty());
        // The matching abort drops the parked grant and confirms.
        deliver(
            &mut q,
            2,
            DsMsg::RedistributeAbort {
                new_boundary: PeerValue(50),
            },
            &mut qfx2,
        );
        assert!(qfx2.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::RedistributeAbortAck { .. } } if *to == PeerId(2)
        )));
        assert!(!q.is_rebalancing());
        // Releasing the scan lock now applies nothing.
        q.release_scan_lock(ctx(1), &mut qfx2);
        assert_eq!(q.range(), CircularRange::new(0u64, 30u64));
        assert_eq!(q.item_count(), 1);

        // Granter side: the abort ack unlocks with range and items intact.
        let mut s = live_peer(2, 30, 100, &[40, 50, 60, 70, 80, 90]);
        let mut sfx = Effects::new();
        deliver(
            &mut s,
            1,
            DsMsg::MergeRequest {
                requester_items: 1,
                requester_value: PeerValue(30),
            },
            &mut sfx,
        );
        assert!(s.is_item_writes_blocked());
        deliver(
            &mut s,
            1,
            DsMsg::RedistributeAbortAck {
                new_boundary: PeerValue(50),
            },
            &mut sfx,
        );
        assert!(!s.is_rebalancing() && !s.is_item_writes_blocked());
        assert_eq!(s.item_count(), 6);
        assert_eq!(s.range(), CircularRange::new(30u64, 100u64));
        // A duplicate/stale abort ack is a no-op.
        deliver(
            &mut s,
            1,
            DsMsg::RedistributeAbortAck {
                new_boundary: PeerValue(50),
            },
            &mut sfx,
        );
        assert!(!s.is_rebalancing());
    }

    #[test]
    fn leave_offer_timeout_allows_a_later_leave() {
        let mut s = live_peer(2, 30, 100, &[40, 90]);
        let mut fx = Effects::new();
        assert!(s.begin_voluntary_leave(PeerId(1), &mut fx));
        // The predecessor died and never answers; the guard clears the offer.
        deliver(
            &mut s,
            2,
            DsMsg::LeaveOfferTimeout { to: PeerId(1) },
            &mut Effects::new(),
        );
        assert!(s.begin_voluntary_leave(PeerId(1), &mut fx));
        // An offer guard was armed both times.
        assert_eq!(
            fx.iter()
                .filter(|e| matches!(
                    e,
                    Effect::Timer {
                        msg: DsMsg::LeaveOfferTimeout { .. },
                        ..
                    }
                ))
                .count(),
            2
        );
    }

    // ---------------------------------------------------- voluntary leave

    #[test]
    fn voluntary_leave_handshake_locks_predecessor_and_merges() {
        // Leaver s owns (30, 100]; predecessor q owns (0, 30].
        let mut q = live_peer(1, 0, 30, &[10, 20]);
        q.set_successor(PeerId(2), PeerValue(100));
        let mut s = live_peer(2, 30, 100, &[40, 90]);

        let mut sfx = Effects::new();
        assert!(s.begin_voluntary_leave(PeerId(1), &mut sfx));
        // Double offers are rejected while one is in flight.
        assert!(!s.begin_voluntary_leave(PeerId(1), &mut sfx));
        let offer = match sfx.drain().remove(0) {
            Effect::Send { to, msg } => {
                assert_eq!(to, PeerId(1));
                msg
            }
            other => panic!("unexpected {other:?}"),
        };

        // The predecessor locks itself and acknowledges (with a guard timer).
        let mut qfx = Effects::new();
        q.handle(ctx(1), PeerId(2), offer, &mut qfx);
        assert!(q.is_rebalancing());
        let q_effects = qfx.drain();
        assert!(q_effects.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::LeaveOfferAck } if *to == PeerId(2)
        )));
        assert!(q_effects.iter().any(|e| matches!(
            e,
            Effect::Timer {
                msg: DsMsg::LeaveAbsorbTimeout { .. },
                ..
            }
        )));
        // While locked, the predecessor declines competing offers/merges.
        let mut qfx2 = Effects::new();
        deliver(
            &mut q,
            9,
            DsMsg::MergeRequest {
                requester_items: 0,
                requester_value: PeerValue(5),
            },
            &mut qfx2,
        );
        assert!(qfx2.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: DsMsg::MergeDeclined,
                ..
            }
        )));

        // The ack starts the usual merge-give at the leaver.
        let mut sfx2 = Effects::new();
        s.handle(ctx(2), PeerId(1), DsMsg::LeaveOfferAck, &mut sfx2);
        assert!(matches!(
            s.drain_events()[0],
            DsEvent::MergeGiveStarted { to } if to == PeerId(1)
        ));
        // Grant, absorb, ack: the predecessor unlocks on absorption.
        let mut sfx3 = Effects::new();
        assert_eq!(s.send_merge_grant(&mut sfx3), Some(PeerId(1)));
        let (range, items, gvalue) = match sfx3.drain().remove(0) {
            Effect::Send {
                msg:
                    DsMsg::MergeGrant {
                        range,
                        items,
                        granter_value,
                    },
                ..
            } => (range, items, granter_value),
            other => panic!("unexpected {other:?}"),
        };
        let mut qfx3 = Effects::new();
        deliver(
            &mut q,
            2,
            DsMsg::MergeGrant {
                range,
                items,
                granter_value: gvalue,
            },
            &mut qfx3,
        );
        assert_eq!(q.range(), CircularRange::new(0u64, 100u64));
        assert_eq!(q.item_count(), 4);
        assert!(!q.is_rebalancing());
        // A late guard timeout after the grant applied is a no-op.
        let mut qfx4 = Effects::new();
        q.handle(
            ctx(1),
            PeerId(1),
            DsMsg::LeaveAbsorbTimeout { from: PeerId(2) },
            &mut qfx4,
        );
        assert!(!q.is_rebalancing());
    }

    #[test]
    fn leave_offer_from_non_successor_is_declined() {
        let mut q = live_peer(1, 0, 30, &[10, 20]);
        q.set_successor(PeerId(2), PeerValue(100));
        // Offer from peer 7, which is not q's cached direct successor.
        let mut fx = Effects::new();
        deliver(
            &mut q,
            7,
            DsMsg::LeaveOffer {
                leaver_value: PeerValue(60),
            },
            &mut fx,
        );
        assert!(!q.is_rebalancing());
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::LeaveOfferDeclined } if *to == PeerId(7)
        )));
        // A stale cached *value* does not decline: only the peer identity
        // matters (values go stale when the successor splits).
        let mut fx2 = Effects::new();
        deliver(
            &mut q,
            2,
            DsMsg::LeaveOffer {
                leaver_value: PeerValue(60),
            },
            &mut fx2,
        );
        assert!(fx2.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: DsMsg::LeaveOfferAck,
                ..
            }
        )));
        // The declined leaver clears its pending offer.
        let mut s = live_peer(2, 30, 100, &[40]);
        let mut sfx = Effects::new();
        assert!(s.begin_voluntary_leave(PeerId(1), &mut sfx));
        s.handle(ctx(2), PeerId(1), DsMsg::LeaveOfferDeclined, &mut sfx);
        assert!(s.begin_voluntary_leave(PeerId(1), &mut sfx));
    }

    #[test]
    fn leave_ack_after_concurrent_rebalance_releases_predecessor() {
        let mut s = live_peer(2, 30, 100, &[40, 90]);
        let mut fx = Effects::new();
        assert!(s.begin_voluntary_leave(PeerId(1), &mut fx));
        // A split/merge started at the leaver while the offer was in flight.
        s.balance = Balance::Busy;
        let mut fx2 = Effects::new();
        s.handle(ctx(2), PeerId(1), DsMsg::LeaveOfferAck, &mut fx2);
        assert!(s.drain_events().is_empty());
        assert!(fx2.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::MergeDeclined } if *to == PeerId(1)
        )));
    }

    #[test]
    fn absorb_timeout_unlocks_predecessor_when_leaver_dies() {
        let mut q = live_peer(1, 0, 30, &[10, 20]);
        q.set_successor(PeerId(2), PeerValue(100));
        let mut fx = Effects::new();
        deliver(
            &mut q,
            2,
            DsMsg::LeaveOffer {
                leaver_value: PeerValue(100),
            },
            &mut fx,
        );
        assert!(q.is_rebalancing());
        // The leaver failed: no grant ever arrives. A guard for a different
        // leaver is ignored; the matching one unlocks.
        let mut fx2 = Effects::new();
        q.handle(
            ctx(1),
            PeerId(1),
            DsMsg::LeaveAbsorbTimeout { from: PeerId(9) },
            &mut fx2,
        );
        assert!(q.is_rebalancing());
        q.handle(
            ctx(1),
            PeerId(1),
            DsMsg::LeaveAbsorbTimeout { from: PeerId(2) },
            &mut fx2,
        );
        assert!(!q.is_rebalancing());
    }

    #[test]
    fn free_or_busy_peer_cannot_offer_leave() {
        let mut free = DataStoreState::new_free(PeerId(3), SystemConfig::fast());
        let mut fx = Effects::new();
        assert!(!free.begin_voluntary_leave(PeerId(1), &mut fx));
        // The sole owner of the full circle has nobody to leave to.
        let mut sole = DataStoreState::new_first(PeerId(0), PeerValue(50), SystemConfig::fast());
        assert!(!sole.begin_voluntary_leave(PeerId(1), &mut fx));
        // A rebalancing peer must finish first.
        let mut busy = live_peer(2, 30, 100, &[40]);
        busy.balance = Balance::Busy;
        assert!(!busy.begin_voluntary_leave(PeerId(1), &mut fx));
        assert!(fx.is_empty());
    }

    #[test]
    fn stale_guards_and_replies_change_nothing() {
        // Each setup leaves the peer after a hand-off has resolved, or in the
        // middle of one. Every message below belongs to some *other*
        // hand-off (or to one already over) and must be a pure no-op.
        fn requesting() -> DataStoreState {
            let mut q = live_peer(1, 0, 30, &[10]);
            q.set_successor(PeerId(2), PeerValue(100));
            q.check_underflow();
            q.send_merge_request(PeerId(2), &mut Effects::new());
            q
        }
        fn absorbing() -> DataStoreState {
            let mut q = live_peer(1, 0, 30, &[10, 20]);
            q.set_successor(PeerId(2), PeerValue(100));
            let offer = DsMsg::LeaveOffer {
                leaver_value: PeerValue(100),
            };
            deliver(&mut q, 2, offer, &mut Effects::new());
            q
        }
        fn absorbed() -> DataStoreState {
            let mut q = absorbing();
            let grant = DsMsg::MergeGrant {
                range: CircularRange::new(30u64, 100u64),
                items: vec![(40, item(40))],
                granter_value: PeerValue(100),
            };
            deliver(&mut q, 2, grant, &mut Effects::new());
            q
        }
        fn redistributing() -> DataStoreState {
            let mut s = live_peer(2, 30, 100, &[40, 50, 60, 70, 80, 90]);
            let request = DsMsg::MergeRequest {
                requester_items: 1,
                requester_value: PeerValue(30),
            };
            deliver(&mut s, 1, request, &mut Effects::new());
            s
        }
        fn redistributed() -> DataStoreState {
            let mut s = redistributing();
            let ack = DsMsg::RedistributeAck {
                new_boundary: PeerValue(50),
            };
            deliver(&mut s, 1, ack, &mut Effects::new());
            s
        }
        fn merge_giving() -> DataStoreState {
            let mut s = live_peer(2, 30, 100, &[40, 90]);
            let request = DsMsg::MergeRequest {
                requester_items: 1,
                requester_value: PeerValue(30),
            };
            deliver(&mut s, 1, request, &mut Effects::new());
            s.send_merge_grant(&mut Effects::new());
            s
        }
        fn leave_declined() -> DataStoreState {
            let mut s = live_peer(2, 30, 100, &[40, 90]);
            s.begin_voluntary_leave(PeerId(1), &mut Effects::new());
            deliver(&mut s, 1, DsMsg::LeaveOfferDeclined, &mut Effects::new());
            s
        }
        let give_timeout = |to: u64, boundary: Option<u64>, attempt: u32| DsMsg::GiveTimeout {
            to: PeerId(to),
            boundary: boundary.map(PeerValue),
            attempt,
        };
        let abort_ack = DsMsg::RedistributeAbortAck {
            new_boundary: PeerValue(50),
        };
        type Setup = fn() -> DataStoreState;
        // (what, setup, sender, message); a timer's sender is the peer itself.
        let cases: Vec<(&str, Setup, u64, DsMsg)> = vec![
            (
                "redistribute guard, attempt 1, after the ack",
                redistributed,
                2,
                give_timeout(1, Some(50), 1),
            ),
            (
                "redistribute guard, attempt 2, after the ack",
                redistributed,
                2,
                give_timeout(1, Some(50), 2),
            ),
            (
                "redistribute guard during a merge give",
                merge_giving,
                2,
                give_timeout(1, Some(50), 1),
            ),
            (
                "merge-give guard during a redistribute",
                redistributing,
                2,
                give_timeout(1, None, 1),
            ),
            (
                "merge-give guard for another receiver",
                merge_giving,
                2,
                give_timeout(9, None, 1),
            ),
            (
                "merge-give guard while requesting",
                requesting,
                1,
                give_timeout(2, None, 1),
            ),
            (
                "leave-offer guard after the decline",
                leave_declined,
                2,
                DsMsg::LeaveOfferTimeout { to: PeerId(1) },
            ),
            (
                "leave-offer guard while requesting",
                requesting,
                1,
                DsMsg::LeaveOfferTimeout { to: PeerId(2) },
            ),
            (
                "absorb guard after the grant applied",
                absorbed,
                1,
                DsMsg::LeaveAbsorbTimeout { from: PeerId(2) },
            ),
            (
                "absorb guard while requesting from the same peer",
                requesting,
                1,
                DsMsg::LeaveAbsorbTimeout { from: PeerId(2) },
            ),
            (
                "abort ack after the redistribute finished",
                redistributed,
                1,
                abort_ack.clone(),
            ),
            ("abort ack during a merge give", merge_giving, 1, abort_ack),
            (
                "decline from a non-counterpart while requesting",
                requesting,
                9,
                DsMsg::MergeDeclined,
            ),
            (
                "decline from a non-counterpart while absorbing",
                absorbing,
                9,
                DsMsg::MergeDeclined,
            ),
            (
                "decline from the receiver of a redistribute",
                redistributing,
                1,
                DsMsg::MergeDeclined,
            ),
        ];
        for (what, setup, from, msg) in cases {
            let mut ds = setup();
            ds.drain_events();
            let (snapshot, rebalancing, state) =
                (ds.snapshot(), ds.is_rebalancing(), format!("{ds:?}"));
            let mut fx = Effects::new();
            deliver(&mut ds, from, msg, &mut fx);
            assert_eq!(ds.snapshot(), snapshot, "{what}: snapshot");
            assert_eq!(ds.is_rebalancing(), rebalancing, "{what}: rebalancing");
            assert_eq!(format!("{ds:?}"), state, "{what}: state");
            assert!(fx.is_empty(), "{what}: no effect");
            assert!(ds.drain_events().is_empty(), "{what}: no event");
        }
    }

    #[test]
    fn a_leaver_dying_with_its_grant_parked_unlocks_and_rechecks() {
        // q (one item, below sf) accepted a leave offer from its successor;
        // the grant arrives while a scan holds q's range lock.
        let mut q = live_peer(1, 0, 30, &[10]);
        q.set_successor(PeerId(2), PeerValue(100));
        let offer = DsMsg::LeaveOffer {
            leaver_value: PeerValue(100),
        };
        deliver(&mut q, 2, offer, &mut Effects::new());
        q.acquire_scan_lock();
        let grant = DsMsg::MergeGrant {
            range: CircularRange::new(30u64, 100u64),
            items: vec![(40, item(40))],
            granter_value: PeerValue(100),
        };
        deliver(&mut q, 2, grant, &mut Effects::new());
        assert_eq!(q.range(), CircularRange::new(0u64, 30u64), "parked");
        q.drain_events();

        // The leaver is declared failed: the parked grant is dropped (its
        // range is revived by the leaver's successor), a retry is armed, and
        // the thresholds are re-checked at once.
        let mut fx = Effects::new();
        q.on_peer_failed(ctx(1), PeerId(2), &mut fx);
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Timer {
                msg: DsMsg::RebalanceRetry,
                ..
            }
        )));
        assert!(q
            .drain_events()
            .iter()
            .any(|e| matches!(e, DsEvent::MergeNeeded { .. })));
        assert!(q.is_rebalancing(), "the re-check announced a merge");
        // Releasing the lock applies nothing.
        q.release_scan_lock(ctx(1), &mut fx);
        assert_eq!(q.range(), CircularRange::new(0u64, 30u64));
        assert_eq!(q.item_count(), 1);
    }

    #[test]
    fn query_id_is_unused_in_balance_paths() {
        // Guard that balance handlers never touch query state.
        let q = live_peer(1, 0, 30, &[10]);
        assert_eq!(q.open_queries(), 0);
        let _ = QueryId {
            origin: PeerId(1),
            seq: 0,
        };
    }
}
