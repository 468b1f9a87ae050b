//! `scanRange` (Algorithms 3–7) and the naive application-level scan.
//!
//! A PEPPER scan walks the ring hop by hop. Every hop:
//!
//! 1. acquires the local range read lock (so the range cannot change under
//!    the scan),
//! 2. acknowledges the previous hop (which may then release *its* lock —
//!    this is the hand-over-hand locking of Algorithm 5),
//! 3. reports its items in the query interval to the query origin,
//! 4. either completes the scan (the interval's upper bound is in its range)
//!    or forwards it to its successor and keeps the lock until the successor
//!    acknowledges.
//!
//! The naive baseline performs the same walk without any locks or
//! acknowledgements; under concurrent splits/merges/redistributions it can
//! miss live items (Section 4.2.2), which is what the correctness
//! experiments measure.

use pepper_net::{Effects, LayerCtx};
use pepper_types::{Item, KeyInterval, PeerId};

use crate::events::DsEvent;
use crate::messages::{DsMsg, QueryId};
use crate::state::{Balance, DataStoreState, DsStatus, PendingForward};

/// Hard cap on scan length, guarding against routing loops in badly
/// inconsistent (naive) rings.
pub const MAX_SCAN_HOPS: u32 = 1024;

/// How many times a rejected scan start is re-routed before the query is
/// finalized with whatever has been collected.
pub const MAX_SCAN_REROUTES: u32 = 5;

/// How many times a scan hand-off is sent before the scan is reported as
/// incomplete (the first send plus three retries).
const SCAN_MAX_RETRIES: usize = 4;

impl DataStoreState {
    fn collect_local(&self, interval: &KeyInterval) -> (Vec<Item>, Vec<KeyInterval>) {
        let pieces = self.range.intersect_interval(interval);
        let mut items = Vec::new();
        for piece in &pieces {
            items.extend(self.store.items_in_interval(piece));
        }
        (items, pieces)
    }

    /// Whether the scan walk terminates at this peer: either its range owns
    /// the interval's upper bound, or the walk has *overshot* it.
    ///
    /// The upper bound can fall in a key-space gap — a failed peer's range
    /// during the window between the failure and its successor's takeover.
    /// No live range ever contains such a bound, so a termination check
    /// based on ownership alone laps the entire ring (and would re-lap it
    /// forever, but for the [`MAX_SCAN_HOPS`] cap) while every lap re-sends
    /// duplicate results. Overshoot is detected in circular walk distance
    /// from the interval's lower bound: the highs of the visited ranges walk
    /// monotonically away from `lo`, so the first peer whose high is at or
    /// past `hi` is where the scan must stop — with the gap uncovered, which
    /// query finalization reports as `complete: false` (availability, not
    /// correctness, is what a failure may cost).
    fn scan_reached_upper_bound(&self, interval: &KeyInterval) -> bool {
        if self.range.contains(interval.hi()) {
            return true;
        }
        if self.range.is_empty() {
            return false;
        }
        let walked = |v: u64| v.wrapping_sub(interval.lo());
        walked(self.range.high().raw()) >= walked(interval.hi())
    }

    /// The peer a scan leaving this peer goes to next: the peer that owns
    /// the range right after this one. That is the cached successor, except
    /// while this peer waits for a grant from its successor (a merge it
    /// requested or a leave it accepted), parked behind a scan lock or not:
    /// the giver owns that range until the grant installs here, even after
    /// the ring has moved on to the peer behind it.
    fn scan_next_hop(&self) -> Option<PeerId> {
        let next = match self.balance {
            Balance::Requesting(giver) => giver,
            _ => self.succ?.0,
        };
        (next != self.id).then_some(next)
    }

    /// One hop of the PEPPER `scanRange`.
    pub(crate) fn on_scan_step(
        &mut self,
        ctx: LayerCtx,
        query: QueryId,
        interval: KeyInterval,
        prev: Option<PeerId>,
        hop: u32,
        fx: &mut Effects<DsMsg>,
    ) {
        if self.status != DsStatus::Live {
            if prev.is_none() {
                fx.send(query.origin, DsMsg::ScanRejected { query });
            }
            // A forwarded step landing on a departed peer is recovered by the
            // previous hop's forward timeout.
            return;
        }
        // The first peer must own the query's lower bound (Algorithm 3).
        if prev.is_none() && !self.range.contains(interval.lo()) {
            fx.send(query.origin, DsMsg::ScanRejected { query });
            return;
        }

        self.acquire_scan_lock();
        if let Some(p) = prev {
            fx.send(p, DsMsg::ScanStepAck { query, hop });
        }

        let (items, covered) = self.collect_local(&interval);
        fx.send(
            query.origin,
            DsMsg::ScanResult {
                query,
                items,
                covered,
                hop,
            },
        );

        if self.scan_reached_upper_bound(&interval) || hop >= MAX_SCAN_HOPS {
            fx.send(query.origin, DsMsg::ScanDone { query, hops: hop });
            self.release_scan_lock(ctx, fx);
            return;
        }

        // Forward to the successor, keeping our lock until it acknowledges.
        match self.scan_next_hop() {
            Some(succ) => {
                fx.send(
                    succ,
                    DsMsg::ScanStep {
                        query,
                        interval,
                        prev: Some(self.id),
                        hop: hop + 1,
                    },
                );
                self.pending_forwards
                    .entry(query)
                    .or_default()
                    .push(PendingForward {
                        target: succ,
                        interval,
                        hop,
                        attempt: 1,
                    });
                fx.timer(
                    self.cfg.scan_forward_timeout(),
                    DsMsg::ScanForwardTimeout {
                        query,
                        target: succ,
                        hop,
                        attempt: 1,
                    },
                );
            }
            None => {
                fx.send(query.origin, DsMsg::ScanFailed { query });
                self.release_scan_lock(ctx, fx);
            }
        }
    }

    /// The successor acknowledged the hand-off: release the corresponding
    /// range lock (one per outstanding hand-off of this query). The ack's
    /// hop counter identifies which forward it answers — acks for different
    /// visits of the same query can arrive out of order, and matching the
    /// wrong one would strand a lost forward without its retry.
    pub(crate) fn on_scan_step_ack(
        &mut self,
        ctx: LayerCtx,
        query: QueryId,
        ack_hop: u32,
        fx: &mut Effects<DsMsg>,
    ) {
        if let Some(pending) = self.pending_forwards.get_mut(&query) {
            let Some(idx) = pending.iter().position(|p| p.hop + 1 == ack_hop) else {
                return;
            };
            pending.remove(idx);
            if pending.is_empty() {
                self.pending_forwards.remove(&query);
            }
            self.release_scan_lock(ctx, fx);
        }
    }

    /// The successor did not acknowledge in time: retry via the (possibly
    /// new) successor or give up.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_scan_forward_timeout(
        &mut self,
        ctx: LayerCtx,
        query: QueryId,
        target: PeerId,
        guard_hop: u32,
        attempt: usize,
        fx: &mut Effects<DsMsg>,
    ) {
        let Some(pending) = self.pending_forwards.get(&query) else {
            return;
        };
        let Some(idx) = pending
            .iter()
            .position(|p| p.target == target && p.hop == guard_hop && p.attempt == attempt)
        else {
            return; // superseded
        };
        let (interval, hop) = (pending[idx].interval, pending[idx].hop);
        let next_attempt = attempt + 1;
        match self.scan_next_hop() {
            Some(succ) if attempt < SCAN_MAX_RETRIES => {
                fx.send(
                    succ,
                    DsMsg::ScanStep {
                        query,
                        interval,
                        prev: Some(self.id),
                        hop: hop + 1,
                    },
                );
                self.pending_forwards.get_mut(&query).expect("present")[idx] = PendingForward {
                    target: succ,
                    interval,
                    hop,
                    attempt: next_attempt,
                };
                fx.timer(
                    self.cfg.scan_forward_timeout(),
                    DsMsg::ScanForwardTimeout {
                        query,
                        target: succ,
                        hop,
                        attempt: next_attempt,
                    },
                );
            }
            _ => {
                let pending = self.pending_forwards.get_mut(&query).expect("present");
                pending.remove(idx);
                if pending.is_empty() {
                    self.pending_forwards.remove(&query);
                }
                fx.send(query.origin, DsMsg::ScanFailed { query });
                self.release_scan_lock(ctx, fx);
            }
        }
    }

    /// The first peer rejected the scan (stale routing): ask the index layer
    /// to re-route, or finalize after too many attempts.
    pub(crate) fn on_scan_rejected(&mut self, ctx: LayerCtx, query: QueryId) {
        let Some(progress) = self.queries.get_mut(&query) else {
            return;
        };
        progress.reroutes += 1;
        if progress.reroutes > MAX_SCAN_REROUTES {
            self.finalize_query(ctx, query);
        } else {
            self.emit(DsEvent::QueryRejected { query });
        }
    }

    /// One hop of the naive, lock-free application-level scan.
    pub(crate) fn on_naive_scan_step(
        &mut self,
        _ctx: LayerCtx,
        query: QueryId,
        interval: KeyInterval,
        hop: u32,
        fx: &mut Effects<DsMsg>,
    ) {
        if self.status != DsStatus::Live {
            // The naive scan has no recovery: the origin's timeout finalizes
            // the query with whatever was collected.
            return;
        }
        let (items, covered) = self.collect_local(&interval);
        fx.send(
            query.origin,
            DsMsg::ScanResult {
                query,
                items,
                covered,
                hop,
            },
        );
        if self.scan_reached_upper_bound(&interval) || hop >= MAX_SCAN_HOPS {
            fx.send(query.origin, DsMsg::ScanDone { query, hops: hop });
            return;
        }
        match self.succ {
            Some((succ, _)) if succ != self.id => {
                fx.send(
                    succ,
                    DsMsg::NaiveScanStep {
                        query,
                        interval,
                        hop: hop + 1,
                    },
                );
            }
            _ => {
                fx.send(query.origin, DsMsg::ScanFailed { query });
            }
        }
    }

    /// Partial result arriving at the query origin.
    pub(crate) fn on_scan_result(
        &mut self,
        ctx: LayerCtx,
        query: QueryId,
        items: Vec<Item>,
        covered: Vec<KeyInterval>,
        hop: u32,
    ) {
        if let Some(progress) = self.queries.get_mut(&query) {
            progress.items.extend(items);
            progress.covered.extend(covered);
            progress.hops = progress.hops.max(hop);
            let hop = hop as usize;
            if progress.hop_results.len() <= hop {
                progress.hop_results.resize(hop + 1, false);
            }
            progress.hop_results[hop] = true;
            self.finalize_if_reported(ctx, query);
        }
    }

    /// Scan completion arriving at the query origin. The last hop's result
    /// came ahead of it on the same link, but a middle hop's result travels
    /// another link and can still be in flight: the query is finalized once
    /// every hop up to this one has reported.
    pub(crate) fn on_scan_done(&mut self, ctx: LayerCtx, query: QueryId, hops: u32) {
        if let Some(progress) = self.queries.get_mut(&query) {
            progress.hops = progress.hops.max(hops);
            progress.final_hop.get_or_insert(hops);
            self.finalize_if_reported(ctx, query);
        }
    }

    /// Finalizes `query` if its walk has ended and every hop of it has
    /// reported its result.
    fn finalize_if_reported(&mut self, ctx: LayerCtx, query: QueryId) {
        let reported = self.queries.get(&query).is_some_and(|p| {
            p.final_hop.is_some_and(|last| {
                p.hop_results
                    .get(..=last as usize)
                    .is_some_and(|hops| hops.iter().all(|&seen| seen))
            })
        });
        if reported {
            self.finalize_query(ctx, query);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Give;
    use pepper_net::{Effect, ProtocolLayer, SimTime};
    use pepper_types::{CircularRange, PeerValue, Protocol, SearchKey, SystemConfig};

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

    fn qid(origin: u64, seq: u64) -> QueryId {
        QueryId {
            origin: PeerId(origin),
            seq,
        }
    }

    #[test]
    fn single_peer_scan_completes_in_zero_hops() {
        let mut p = live_peer(1, 0, 100, &[10, 20, 30]);
        let mut fx = Effects::new();
        let interval = KeyInterval::new(15, 35).unwrap();
        p.on_scan_step(ctx(1), qid(9, 0), interval, None, 0, &mut fx);
        let effects = fx.drain();
        // Result with items 20 and 30, then done; the lock is released.
        let result_items: Vec<u64> = effects
            .iter()
            .find_map(|e| match e {
                Effect::Send {
                    msg: DsMsg::ScanResult { items, .. },
                    ..
                } => Some(items.iter().map(|i| i.skv.raw()).collect()),
                _ => None,
            })
            .unwrap();
        assert_eq!(result_items, vec![20, 30]);
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: DsMsg::ScanDone { hops: 0, .. },
                ..
            }
        )));
        assert_eq!(p.scan_locks(), 0);
    }

    #[test]
    fn first_peer_rejects_when_not_owner_of_lower_bound() {
        let mut p = live_peer(1, 50, 100, &[60]);
        let mut fx = Effects::new();
        let interval = KeyInterval::new(10, 70).unwrap();
        p.on_scan_step(ctx(1), qid(9, 0), interval, None, 0, &mut fx);
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::ScanRejected { .. } } if *to == PeerId(9)
        )));
        assert_eq!(p.scan_locks(), 0);
    }

    #[test]
    fn multi_hop_scan_forwards_and_holds_lock_until_ack() {
        let mut p = live_peer(1, 0, 50, &[10, 40]);
        p.set_successor(PeerId(2), PeerValue(100));
        let mut fx = Effects::new();
        let interval = KeyInterval::new(5, 90).unwrap();
        p.on_scan_step(ctx(1), qid(9, 3), interval, None, 0, &mut fx);
        let effects = fx.drain();
        // Forwarded to the successor with hop + 1 and prev = self.
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::ScanStep { prev: Some(prev), hop: 1, .. } }
                if *to == PeerId(2) && *prev == PeerId(1)
        )));
        // A hand-off timeout guard was armed and the lock is still held.
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Timer {
                msg: DsMsg::ScanForwardTimeout { .. },
                ..
            }
        )));
        assert_eq!(p.scan_locks(), 1);

        // The successor acknowledges: the lock is released.
        p.on_scan_step_ack(ctx(1), qid(9, 3), 1, &mut fx);
        assert_eq!(p.scan_locks(), 0);
    }

    #[test]
    fn out_of_order_acks_match_their_own_forward() {
        // The same peer is visited twice by one (degenerate) scan, so two
        // forwards are outstanding; the second visit's ack arrives first and
        // must not consume the first forward's bookkeeping.
        let mut p = live_peer(1, 0, 50, &[10]);
        p.set_successor(PeerId(2), PeerValue(100));
        let mut fx = Effects::new();
        let interval = KeyInterval::new(5, 90).unwrap();
        p.on_scan_step(ctx(1), qid(9, 0), interval, None, 0, &mut fx); // hop 0 → fwd hop 1
        p.on_scan_step(ctx(1), qid(9, 0), interval, Some(PeerId(3)), 4, &mut fx); // hop 4 → fwd hop 5
        fx.drain();
        assert_eq!(p.scan_locks(), 2);

        // Ack for the second visit (hop 5) arrives first.
        p.on_scan_step_ack(ctx(1), qid(9, 0), 5, &mut fx);
        assert_eq!(p.scan_locks(), 1);
        // The first forward is still tracked: its timeout retries it.
        p.on_scan_forward_timeout(ctx(1), qid(9, 0), PeerId(2), 0, 1, &mut fx);
        assert!(fx.drain().iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: DsMsg::ScanStep { hop: 1, .. },
                ..
            }
        )));
        // An ack with an unknown hop is ignored.
        p.on_scan_step_ack(ctx(1), qid(9, 0), 9, &mut fx);
        assert_eq!(p.scan_locks(), 1);
        p.on_scan_step_ack(ctx(1), qid(9, 0), 1, &mut fx);
        assert_eq!(p.scan_locks(), 0);
    }

    #[test]
    fn forwarded_step_acknowledges_previous_hop() {
        let mut p2 = live_peer(2, 50, 100, &[60, 90]);
        let mut fx = Effects::new();
        let interval = KeyInterval::new(5, 90).unwrap();
        p2.on_scan_step(ctx(2), qid(9, 3), interval, Some(PeerId(1)), 1, &mut fx);
        let effects = fx.drain();
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::ScanStepAck { .. } } if *to == PeerId(1)
        )));
        // 90 is in p2's range: the scan is done there.
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: DsMsg::ScanDone { hops: 1, .. },
                ..
            }
        )));
        assert_eq!(p2.scan_locks(), 0);
    }

    #[test]
    fn deferred_range_change_applies_after_scan_ack() {
        // A redistribute grant arrives while the peer is mid-scan (lock held
        // waiting for the successor's ack): the range change waits.
        let mut p = live_peer(1, 0, 50, &[10, 40]);
        p.set_successor(PeerId(2), PeerValue(100));
        p.balance = Balance::Requesting(PeerId(2));
        let mut fx = Effects::new();
        let interval = KeyInterval::new(5, 90).unwrap();
        p.on_scan_step(ctx(1), qid(9, 0), interval, None, 0, &mut fx);
        assert_eq!(p.scan_locks(), 1);

        let grant = DsMsg::Grant {
            give: Give::Lower(PeerValue(60)),
            range: CircularRange::new(50u64, 60u64),
            items: vec![(60, item(60))],
        };
        p.handle(ctx(1), PeerId(2), grant, &mut fx);
        assert_eq!(p.range(), CircularRange::new(0u64, 50u64));
        // Ack from the successor releases the lock and applies the change.
        p.on_scan_step_ack(ctx(1), qid(9, 0), 1, &mut fx);
        assert_eq!(p.range(), CircularRange::new(0u64, 60u64));
        assert!(p.store.contains(60));
    }

    #[test]
    fn forward_timeout_retries_then_gives_up() {
        let mut p = live_peer(1, 0, 50, &[10]);
        p.set_successor(PeerId(2), PeerValue(100));
        let mut fx = Effects::new();
        let interval = KeyInterval::new(5, 90).unwrap();
        p.on_scan_step(ctx(1), qid(9, 0), interval, None, 0, &mut fx);
        fx.drain();

        // Every timeout but the last: the successor has changed (failure
        // handled by the ring); the scan is re-forwarded to the new successor.
        let mut target = PeerId(2);
        for attempt in 1..SCAN_MAX_RETRIES {
            let next = PeerId(2 + attempt as u64);
            p.set_successor(next, PeerValue(100));
            p.on_scan_forward_timeout(ctx(1), qid(9, 0), target, 0, attempt, &mut fx);
            let effects = fx.drain();
            assert!(effects.iter().any(|e| matches!(
                e,
                Effect::Send { to, msg: DsMsg::ScanStep { .. } } if *to == next
            )));
            assert!(!effects.iter().any(|e| matches!(
                e,
                Effect::Send {
                    msg: DsMsg::ScanFailed { .. },
                    ..
                }
            )));
            assert_eq!(p.scan_locks(), 1);
            target = next;
        }

        // Exhausting the retries reports failure and releases the lock.
        p.on_scan_forward_timeout(ctx(1), qid(9, 0), target, 0, SCAN_MAX_RETRIES, &mut fx);
        let effects = fx.drain();
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::ScanFailed { .. } } if *to == PeerId(9)
        )));
        assert_eq!(p.scan_locks(), 0);

        // A stale timeout afterwards is ignored.
        p.on_scan_forward_timeout(ctx(1), qid(9, 0), target, 0, SCAN_MAX_RETRIES, &mut fx);
        assert_eq!(p.scan_locks(), 0);
    }

    #[test]
    fn scan_overshooting_a_gap_terminates_instead_of_lapping_the_ring() {
        // Regression pin for the hops_p99 = 1024 outlier in the committed
        // N=32 standard bench rung: the query's upper bound (150) lies in a
        // failed peer's range that nobody has taken over yet, so no live
        // range contains it. The walk arrives at the next live peer past the
        // gap — range (200, 300] — which must recognize the overshoot and
        // finalize the scan instead of forwarding it around the entire ring
        // until MAX_SCAN_HOPS.
        let mut p = live_peer(4, 200, 300, &[250]);
        p.set_successor(PeerId(5), PeerValue(400));
        let mut fx = Effects::new();
        let interval = KeyInterval::new(50, 150).unwrap();
        p.on_scan_step(ctx(4), qid(9, 0), interval, Some(PeerId(3)), 2, &mut fx);
        let effects = fx.drain();
        assert!(
            effects.iter().any(|e| matches!(
                e,
                Effect::Send { to, msg: DsMsg::ScanDone { hops: 2, .. } } if *to == PeerId(9)
            )),
            "the scan must finalize at the overshooting peer"
        );
        assert!(
            !effects.iter().any(|e| matches!(
                e,
                Effect::Send {
                    msg: DsMsg::ScanStep { .. },
                    ..
                }
            )),
            "the scan must not keep walking past the query interval"
        );
        assert_eq!(p.scan_locks(), 0);
    }

    #[test]
    fn naive_scan_overshooting_a_gap_terminates_too() {
        let mut p = live_peer(4, 200, 300, &[250]);
        p.set_successor(PeerId(5), PeerValue(400));
        let mut fx = Effects::new();
        let interval = KeyInterval::new(50, 150).unwrap();
        p.on_naive_scan_step(ctx(4), qid(9, 0), interval, 2, &mut fx);
        let effects = fx.drain();
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: DsMsg::ScanDone { hops: 2, .. },
                ..
            }
        )));
        assert!(!effects.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: DsMsg::NaiveScanStep { .. },
                ..
            }
        )));
    }

    #[test]
    fn overshoot_guard_handles_wrapping_walks() {
        // The walk wraps the top of the domain: lo = MAX - 10, hi = MAX - 2
        // (a KeyInterval is linear, but the *walk* from the owner of lo may
        // wrap). A peer whose range wraps past the bound terminates; one
        // strictly between lo and hi keeps forwarding.
        let hi = u64::MAX - 2;
        let interval = KeyInterval::new(u64::MAX - 10, hi).unwrap();
        // Range (MAX-6, 5] wraps and contains hi: plain ownership.
        let p_owner = live_peer(1, u64::MAX - 6, 5, &[]);
        assert!(p_owner.scan_reached_upper_bound(&interval));
        // Range (2, 20]: entirely past the wrap, high walked beyond hi.
        let p_past = live_peer(2, 2, 20, &[]);
        assert!(p_past.scan_reached_upper_bound(&interval));
        // Range (MAX-10, MAX-5]: mid-walk, must keep forwarding.
        let p_mid = live_peer(3, u64::MAX - 10, u64::MAX - 5, &[]);
        assert!(!p_mid.scan_reached_upper_bound(&interval));
        // An empty range never claims the bound.
        let mut p_empty = live_peer(5, 0, 100, &[]);
        p_empty.range = CircularRange::empty(50u64);
        assert!(!p_empty.scan_reached_upper_bound(&interval));
    }

    #[test]
    fn naive_scan_reports_and_forwards_without_locks() {
        let mut p = live_peer(1, 0, 50, &[10, 40]);
        p.set_successor(PeerId(2), PeerValue(100));
        let mut fx = Effects::new();
        let interval = KeyInterval::new(5, 90).unwrap();
        p.on_naive_scan_step(ctx(1), qid(9, 0), interval, 0, &mut fx);
        let effects = fx.drain();
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: DsMsg::ScanResult { .. },
                ..
            }
        )));
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::NaiveScanStep { hop: 1, .. } } if *to == PeerId(2)
        )));
        assert_eq!(p.scan_locks(), 0);
    }

    #[test]
    fn scan_rejection_requests_rerouting_then_gives_up() {
        let mut issuer = live_peer(9, 0, 100, &[]);
        let mut fx = Effects::new();
        let (id, _) = issuer
            .register_query(
                ctx(9),
                pepper_types::RangeQuery::closed(10u64, 20u64),
                &mut fx,
            )
            .unwrap();
        for _ in 0..MAX_SCAN_REROUTES {
            issuer.on_scan_rejected(ctx(9), id);
        }
        assert_eq!(
            issuer
                .drain_events()
                .iter()
                .filter(|e| matches!(e, DsEvent::QueryRejected { .. }))
                .count(),
            MAX_SCAN_REROUTES as usize
        );
        // One more rejection finalizes the query as incomplete.
        issuer.on_scan_rejected(ctx(9), id);
        assert!(issuer.drain_events().iter().any(|e| matches!(
            e,
            DsEvent::QueryCompleted {
                complete: false,
                ..
            }
        )));
        assert_eq!(issuer.open_queries(), 0);
    }

    #[test]
    fn results_accumulate_and_done_finalizes() {
        let mut issuer = live_peer(9, 0, 100, &[]);
        let mut fx = Effects::new();
        let (id, _) = issuer
            .register_query(
                ctx(9),
                pepper_types::RangeQuery::closed(10u64, 60u64),
                &mut fx,
            )
            .unwrap();
        issuer.on_scan_result(
            ctx(9),
            id,
            vec![item(15)],
            vec![KeyInterval::new(10, 30).unwrap()],
            0,
        );
        issuer.on_scan_result(
            ctx(9),
            id,
            vec![item(45), item(15)],
            vec![KeyInterval::new(31, 60).unwrap()],
            1,
        );
        issuer.on_scan_done(ctx(9), id, 1);
        match &issuer.drain_events()[0] {
            DsEvent::QueryCompleted {
                items,
                hops,
                complete,
                ..
            } => {
                // Duplicates are removed, items sorted by key.
                assert_eq!(
                    items.iter().map(|i| i.skv.raw()).collect::<Vec<_>>(),
                    vec![15, 45]
                );
                assert_eq!(*hops, 1);
                assert!(complete);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn incomplete_coverage_is_reported() {
        let mut issuer = live_peer(9, 0, 100, &[]);
        let mut fx = Effects::new();
        let (id, _) = issuer
            .register_query(
                ctx(9),
                pepper_types::RangeQuery::closed(10u64, 60u64),
                &mut fx,
            )
            .unwrap();
        // Every hop reported, but a sub-range was skipped (naive scan over
        // an inconsistent ring): completeness is false.
        for (hop, lo, hi) in [(0, 10, 30), (1, 31, 40), (2, 46, 60)] {
            let covered = vec![KeyInterval::new(lo, hi).unwrap()];
            issuer.on_scan_result(ctx(9), id, vec![], covered, hop);
        }
        issuer.on_scan_done(ctx(9), id, 2);
        assert!(issuer.drain_events().iter().any(|e| matches!(
            e,
            DsEvent::QueryCompleted {
                complete: false,
                ..
            }
        )));
    }

    #[test]
    fn done_waits_for_a_middle_hops_late_result() {
        let mut issuer = live_peer(9, 0, 100, &[]);
        let mut fx = Effects::new();
        let (id, _) = issuer
            .register_query(
                ctx(9),
                pepper_types::RangeQuery::closed(10u64, 60u64),
                &mut fx,
            )
            .unwrap();
        let piece = |lo, hi| vec![KeyInterval::new(lo, hi).unwrap()];
        issuer.on_scan_result(ctx(9), id, vec![item(15)], piece(10, 30), 0);
        // The last hop's result and `ScanDone` share a link and arrive
        // first; hop 1's result is still in flight.
        issuer.on_scan_result(ctx(9), id, vec![], piece(46, 60), 2);
        issuer.on_scan_done(ctx(9), id, 2);
        assert!(issuer.drain_events().is_empty());
        assert_eq!(issuer.open_queries(), 1);
        issuer.on_scan_result(ctx(9), id, vec![item(40)], piece(31, 45), 1);
        match &issuer.drain_events()[..] {
            [DsEvent::QueryCompleted {
                items,
                hops: 2,
                complete: true,
                ..
            }] => assert_eq!(items.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        // A failure report still finalizes at once.
        let (id, _) = issuer
            .register_query(
                ctx(9),
                pepper_types::RangeQuery::closed(10u64, 60u64),
                &mut fx,
            )
            .unwrap();
        issuer.on_scan_done(ctx(9), id, 3);
        issuer.handle(ctx(9), PeerId(4), DsMsg::ScanFailed { query: id }, &mut fx);
        assert!(issuer.drain_events().iter().any(|e| matches!(
            e,
            DsEvent::QueryCompleted {
                complete: false,
                ..
            }
        )));
        assert_eq!(issuer.open_queries(), 0);
    }

    #[test]
    fn a_peer_awaiting_its_successors_range_forwards_to_the_giver() {
        let interval = KeyInterval::new(5, 90).unwrap();
        let mut p = live_peer(1, 0, 50, &[10]);
        p.set_successor(PeerId(2), PeerValue(70));
        p.balance = Balance::Requesting(PeerId(2));
        // The giver is LEAVING: the ring names the peer behind it.
        p.set_successor(PeerId(3), PeerValue(100));
        let mut fx = Effects::new();
        p.on_scan_step(ctx(1), qid(9, 0), interval, None, 0, &mut fx);
        assert!(fx.drain().iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::ScanStep { hop: 1, .. } } if *to == PeerId(2)
        )));
        // The retry goes to the giver too.
        p.on_scan_forward_timeout(ctx(1), qid(9, 0), PeerId(2), 0, 1, &mut fx);
        assert!(fx.drain().iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::ScanStep { hop: 1, .. } } if *to == PeerId(2)
        )));
        // Once the wait is over, scans follow the successor again.
        p.balance = Balance::Idle;
        p.on_scan_step(ctx(1), qid(9, 1), interval, None, 0, &mut fx);
        assert!(fx.drain().iter().any(|e| matches!(
            e,
            Effect::Send { to, msg: DsMsg::ScanStep { hop: 1, .. } } if *to == PeerId(3)
        )));
    }

    #[test]
    fn scan_step_on_free_peer_is_dropped_or_rejected() {
        let mut free = DataStoreState::new_free(PeerId(3), SystemConfig::fast());
        let mut fx = Effects::new();
        let interval = KeyInterval::new(5, 90).unwrap();
        // First hop: rejected back to the origin.
        free.on_scan_step(ctx(3), qid(9, 0), interval, None, 0, &mut fx);
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: DsMsg::ScanRejected { .. },
                ..
            }
        )));
        // Forwarded hop: silently dropped (recovered by the sender timeout).
        let mut fx2 = Effects::new();
        free.on_scan_step(ctx(3), qid(9, 0), interval, Some(PeerId(1)), 1, &mut fx2);
        assert!(fx2.is_empty());
    }

    #[test]
    fn naive_scan_on_departed_peer_is_silently_lost() {
        let mut free = DataStoreState::new_free(
            PeerId(3),
            SystemConfig::fast().with_protocol(Protocol::Naive),
        );
        let mut fx = Effects::new();
        free.on_naive_scan_step(
            ctx(3),
            qid(9, 0),
            KeyInterval::new(5, 90).unwrap(),
            1,
            &mut fx,
        );
        assert!(fx.is_empty());
    }
}
