//! Whole-system invariant checkers.
//!
//! Each checker consumes a [`SystemView`] — a cheap point-in-time snapshot of
//! every peer's ring state, Data Store and replica holdings — and returns the
//! violations it found. The harness runs the *per-step* checkers between
//! scheduled operations and the *quiescence* checkers after the system has
//! settled:
//!
//! | checker | when | tolerates |
//! |---|---|---|
//! | [`check_ring`] | per step | — |
//! | [`check_range_partition`] | per step | gaps during failure recovery; overlaps across in-flight transfers |
//! | [`check_duplicate_items`] | per step | duplicates across in-flight transfers (copy-then-delete) |
//! | [`check_recovered_range`] | per step | — |
//! | [`check_storage_bounds`] | quiescence | — |
//! | [`check_replication`] | quiescence | — |

use std::collections::BTreeMap;

use pepper_datastore::{DsSnapshot, DsStatus};
use pepper_net::SimTime;
use pepper_ring::consistency::{check_ring_invariants, RingSnapshot};
use pepper_ring::RingPhase;
use pepper_types::PeerId;

/// One invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant was violated (stable kebab-case name).
    pub invariant: &'static str,
    /// The peers the checker implicates (may be empty when the violation
    /// is not attributable — e.g. a whole-ring connectivity failure). The
    /// harness embeds these peers' trace tails into the failure artifact.
    pub peers: Vec<PeerId>,
    /// Human-readable description of what exactly went wrong.
    pub details: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.details)
    }
}

/// A point-in-time snapshot of the whole system, as the oracles see it.
#[derive(Debug, Clone)]
pub struct SystemView {
    /// Virtual time of the snapshot.
    pub now: SimTime,
    /// Every peer's ring state.
    pub ring: Vec<RingSnapshot>,
    /// Every peer's Data Store, tagged with liveness.
    pub stores: Vec<(bool, DsSnapshot)>,
    /// Mapped values of the replicas held per alive peer.
    pub replicas: BTreeMap<PeerId, std::collections::BTreeSet<u64>>,
}

impl SystemView {
    /// The alive, storing (status `Live`) Data Stores with a non-empty
    /// range, sorted by the upper end of their range (= ring value).
    fn live_stores(&self) -> Vec<&DsSnapshot> {
        let mut live: Vec<&DsSnapshot> = self
            .stores
            .iter()
            .filter(|(alive, s)| *alive && s.status == DsStatus::Live && !s.range.is_empty())
            .map(|(_, s)| s)
            .collect();
        live.sort_by_key(|s| (s.range.high(), s.id));
        live
    }
}

/// Ring successor-consistency and connectivity (Definition 5 / Section 5.1),
/// promoted to a per-step assertion.
pub fn check_ring(view: &SystemView) -> Vec<Violation> {
    check_ring_invariants(&view.ring)
        .violations
        .into_iter()
        .map(|v| Violation {
            invariant: "ring",
            peers: v.peers,
            details: v.details,
        })
        .collect()
}

/// Live peers' ranges must partition the value space: each range starts
/// exactly where its ring predecessor's ends.
///
/// * `allow_gaps` — set while the system is within the failure-recovery
///   grace window: a failed peer's range is unowned until its successor's
///   failure detection extends over it.
/// * Overlaps are tolerated only across peers with a transfer in flight
///   (copy-then-delete intentionally double-covers the moving sub-range).
pub fn check_range_partition(view: &SystemView, allow_gaps: bool) -> Vec<Violation> {
    let live = view.live_stores();
    let mut out = Vec::new();
    if live.len() <= 1 {
        return out;
    }
    for (i, s) in live.iter().enumerate() {
        if s.range.is_full() {
            // More than one live peer but one claims the whole circle.
            if !s.transfer_in_flight() {
                out.push(Violation {
                    invariant: "range-partition",
                    peers: vec![s.id],
                    details: format!(
                        "peer {} claims the full circle while {} live peers exist",
                        s.id,
                        live.len()
                    ),
                });
            }
            continue;
        }
        let prev = live[(i + live.len() - 1) % live.len()];
        let expected = prev.range.high();
        let actual = s.range.low();
        if actual == expected {
            continue;
        }
        // Classify: the low end reaching back into ANY other live range is
        // an overlap (a mis-extension can reach past the immediate
        // predecessor and swallow several peers — it must never be excused
        // as a "gap", which the failure-grace window would tolerate);
        // anything else is a gap. `actual == o.high` is NOT an overlap:
        // ranges are half-open `(low, high]`, so `(x, b]` and `(b, y]` tile
        // perfectly — the sorted-order predecessor can differ from the
        // tiling neighbour while a transfer double-owns a stretch (two
        // peers share a high), and misreading that adjacency as an overlap
        // would blame an uninvolved peer.
        let overlapped = live.iter().filter(|o| o.id != s.id).find(|o| {
            (o.range.contains(actual) && actual != o.range.high()) || actual == o.range.low()
        });
        if let Some(victim) = overlapped {
            if !s.transfer_in_flight() && !victim.transfer_in_flight() {
                out.push(Violation {
                    invariant: "range-partition",
                    peers: vec![s.id, victim.id],
                    details: format!(
                        "overlap: peer {} owns {} reaching into peer {}'s range {} \
                         (no transfer in flight on either side)",
                        s.id, s.range, victim.id, victim.range
                    ),
                });
            }
        } else if !allow_gaps
            && !live
                .iter()
                .any(|o| o.id != s.id && o.range.contains(actual))
        {
            // A gap leaves `actual` itself unowned. The sorted-order
            // predecessor is not always the peer that owns it: while a
            // split's ack is in flight, giver and receiver share a high,
            // and the tie may sort the receiver first.
            out.push(Violation {
                invariant: "range-partition",
                peers: vec![s.id, prev.id],
                details: format!(
                    "gap: peer {} owns {} but its ring predecessor {} ends at {} \
                     (keys in between are unowned, outside any failure-recovery window)",
                    s.id,
                    s.range,
                    prev.id,
                    expected.raw()
                ),
            });
        }
    }
    out
}

/// A peer must never *serve* a range it merely recovered from durable
/// storage: a restarted peer's range is stale by definition (the live ring
/// reassigned it during the downtime), so holding a Live Data Store with a
/// non-empty range while being ring-`Free` means recovered state was
/// installed without the rejoin handshake. Ring members in the joined,
/// inserting or leaving phase are legitimate owners; only the Free phase is
/// impossible for a correct storing peer (a leaver stays `Leaving` until its
/// range is fully given away, and departing empties the range in the same
/// step).
pub fn check_recovered_range(view: &SystemView) -> Vec<Violation> {
    let phases: BTreeMap<PeerId, RingPhase> = view.ring.iter().map(|r| (r.id, r.phase)).collect();
    view.stores
        .iter()
        .filter(|(alive, s)| {
            *alive
                && s.status == DsStatus::Live
                && !s.range.is_empty()
                && phases.get(&s.id) == Some(&RingPhase::Free)
        })
        .map(|(_, s)| Violation {
            invariant: "recovered-range",
            peers: vec![s.id],
            details: format!(
                "peer {} serves range {} with {} item(s) while ring-Free — a recovered \
                 stale range must never be owned before the rejoin handshake completes",
                s.id,
                s.range,
                s.mapped_keys.len()
            ),
        })
        .collect()
}

/// No mapped value may be stored at two live peers at once, except across a
/// transfer in flight (the giving side keeps its copy until the receiver
/// acknowledges).
pub fn check_duplicate_items(view: &SystemView) -> Vec<Violation> {
    let mut holders: BTreeMap<u64, Vec<&DsSnapshot>> = BTreeMap::new();
    for (alive, s) in &view.stores {
        if !alive || s.status != DsStatus::Live {
            continue;
        }
        for m in &s.mapped_keys {
            holders.entry(*m).or_default().push(s);
        }
    }
    holders
        .into_iter()
        .filter(|(_, hs)| hs.len() > 1 && hs.iter().all(|h| !h.transfer_in_flight()))
        .map(|(m, hs)| {
            let ids: Vec<String> = hs.iter().map(|h| h.id.to_string()).collect();
            Violation {
                invariant: "duplicate-items",
                peers: hs.iter().map(|h| h.id).collect(),
                details: format!(
                    "mapped value {m} is stored at {} simultaneously (no transfer in flight)",
                    ids.join(" and ")
                ),
            }
        })
        .collect()
}

/// After quiescence every live peer must respect the P-Ring storage bound:
/// at most `2·sf` items (a settled system has completed every split).
pub fn check_storage_bounds(view: &SystemView, overflow_threshold: usize) -> Vec<Violation> {
    view.live_stores()
        .iter()
        .filter(|s| s.mapped_keys.len() > overflow_threshold)
        .map(|s| Violation {
            invariant: "storage-bounds",
            peers: vec![s.id],
            details: format!(
                "peer {} holds {} items after quiescence (overflow threshold {})",
                s.id,
                s.mapped_keys.len(),
                overflow_threshold
            ),
        })
        .collect()
}

/// After quiescence every stored item must be replicated at each of its
/// owner's `min(k, n−1)` nearest ring successors (the CFS scheme the
/// Replication Manager implements). An item counts as covered at a successor
/// that holds it either as a replica or — when a rebalance just moved the
/// boundary — in its own store.
pub fn check_replication(view: &SystemView, replication_factor: usize) -> Vec<Violation> {
    let live = view.live_stores();
    let n = live.len();
    let mut out = Vec::new();
    if n <= 1 {
        return out;
    }
    let depth = replication_factor.min(n - 1);
    let empty = std::collections::BTreeSet::new();
    for (i, owner) in live.iter().enumerate() {
        for m in &owner.mapped_keys {
            for j in 1..=depth {
                let succ = live[(i + j) % n];
                let replicas = view.replicas.get(&succ.id).unwrap_or(&empty);
                if !replicas.contains(m) && succ.mapped_keys.binary_search(m).is_err() {
                    out.push(Violation {
                        invariant: "replication",
                        peers: vec![owner.id, succ.id],
                        details: format!(
                            "item {m} at peer {} is missing from successor {} \
                             (hop {j} of {depth}) after quiescence",
                            owner.id, succ.id
                        ),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepper_types::CircularRange;

    fn store(id: u64, low: u64, high: u64, keys: &[u64]) -> DsSnapshot {
        DsSnapshot {
            id: PeerId(id),
            status: DsStatus::Live,
            range: CircularRange::new(low, high),
            mapped_keys: keys.to_vec(),
            rebalancing: false,
            writes_blocked: false,
            scan_locks: 0,
            open_queries: 0,
        }
    }

    fn view(stores: Vec<DsSnapshot>) -> SystemView {
        SystemView {
            now: SimTime::ZERO,
            ring: Vec::new(),
            stores: stores.into_iter().map(|s| (true, s)).collect(),
            replicas: BTreeMap::new(),
        }
    }

    #[test]
    fn clean_partition_passes() {
        // 3 peers partitioning the circle: (80, 20], (20, 50], (50, 80].
        let v = view(vec![
            store(1, 80, 20, &[10]),
            store(2, 20, 50, &[30]),
            store(3, 50, 80, &[60]),
        ]);
        assert!(check_range_partition(&v, false).is_empty());
        assert!(check_duplicate_items(&v).is_empty());
    }

    #[test]
    fn gaps_are_flagged_unless_in_grace() {
        // Peer 2's range starts at 30, leaving (20, 30] unowned.
        let v = view(vec![
            store(1, 80, 20, &[10]),
            store(2, 30, 50, &[40]),
            store(3, 50, 80, &[60]),
        ]);
        let viols = check_range_partition(&v, false);
        assert_eq!(viols.len(), 1, "{viols:?}");
        assert!(viols[0].details.contains("gap"));
        assert!(check_range_partition(&v, true).is_empty());
    }

    #[test]
    fn overlaps_are_flagged_unless_transferring() {
        // Peer 2 reaches back into peer 1's range.
        let mut stores = vec![
            store(1, 80, 20, &[10]),
            store(2, 10, 50, &[30]),
            store(3, 50, 80, &[60]),
        ];
        let v = view(stores.clone());
        let viols = check_range_partition(&v, false);
        assert_eq!(viols.len(), 1, "{viols:?}");
        assert!(viols[0].details.contains("overlap"));
        // The same overlap across an in-flight transfer is tolerated.
        stores[0].writes_blocked = true;
        let v2 = view(stores);
        assert!(check_range_partition(&v2, false).is_empty());
    }

    #[test]
    fn duplicates_are_flagged_unless_transferring() {
        let mut stores = vec![store(1, 80, 20, &[10, 15]), store(2, 20, 80, &[15, 30])];
        let v = view(stores.clone());
        let viols = check_duplicate_items(&v);
        assert_eq!(viols.len(), 1);
        assert!(viols[0].details.contains("15"));
        stores[1].rebalancing = true;
        assert!(check_duplicate_items(&view(stores)).is_empty());
    }

    #[test]
    fn boundary_adjacency_is_not_an_overlap() {
        // Two peers sharing a high mid-transfer (copy-then-delete double-own)
        // shift the sorted-order predecessors: peer 3's sorted predecessor
        // becomes the transferring peer 4 instead of its tiling neighbour 2.
        // Peer 3's low == peer 2's high is perfect `(a, b] (b, c]` adjacency
        // and must classify as a (grace-excusable) gap against its sorted
        // predecessor, never as an overlap with the uninvolved peer 2.
        let mut transferring = store(4, 50, 80, &[60]);
        transferring.writes_blocked = true; // in-flight transfer with peer 3
        let v = view(vec![
            store(1, 80, 20, &[10]),
            store(2, 20, 40, &[30]),
            store(3, 40, 80, &[70]),
            transferring,
        ]);
        let viols = check_range_partition(&v, false);
        assert!(
            viols.iter().all(|x| !x.details.contains("overlap")),
            "{viols:?}"
        );
        assert!(check_range_partition(&v, true).is_empty(), "in grace");
    }

    #[test]
    fn a_split_giver_sorted_after_its_receiver_has_no_gap() {
        // A split's ack is in flight: the giver 3 still owns (20, 80] and
        // the receiver 2 already owns (50, 80]. They share the high 80 and
        // the receiver sorts first, so the giver's sorted predecessor is the
        // receiver — but the giver's low end 20 is where peer 1 ends.
        let mut giver = store(3, 20, 80, &[30, 60]);
        giver.writes_blocked = true;
        let v = view(vec![
            store(1, 80, 20, &[10]),
            store(2, 50, 80, &[60]),
            giver,
        ]);
        let viols = check_range_partition(&v, false);
        assert!(viols.is_empty(), "{viols:?}");
    }

    #[test]
    fn a_gap_below_two_peers_sharing_a_high_is_still_flagged() {
        // The same split, but peer 1 ends at 10: (10, 20] is unowned.
        let mut giver = store(3, 20, 80, &[30, 60]);
        giver.writes_blocked = true;
        let v = view(vec![store(1, 80, 10, &[5]), store(2, 50, 80, &[60]), giver]);
        let viols = check_range_partition(&v, false);
        assert_eq!(viols.len(), 1, "{viols:?}");
        assert!(viols[0].details.contains("gap"), "{viols:?}");
        assert_eq!(viols[0].peers, [PeerId(3), PeerId(2)]);
        assert!(check_range_partition(&v, true).is_empty(), "in grace");
    }

    #[test]
    fn recovered_stale_range_is_flagged_only_in_the_free_phase() {
        let ring_snap = |phase: RingPhase| RingSnapshot {
            id: PeerId(1),
            value: pepper_types::PeerValue(20),
            phase,
            succ_list: Vec::new(),
            target_len: 4,
            alive: true,
        };
        let mut v = view(vec![store(1, 80, 20, &[10])]);
        for legit in [RingPhase::Joined, RingPhase::Inserting, RingPhase::Leaving] {
            v.ring = vec![ring_snap(legit)];
            assert!(check_recovered_range(&v).is_empty(), "{legit:?}");
        }
        v.ring = vec![ring_snap(RingPhase::Free)];
        let viols = check_recovered_range(&v);
        assert_eq!(viols.len(), 1, "{viols:?}");
        assert_eq!(viols[0].invariant, "recovered-range");
        // A dead peer's stale store is not "served"; no violation.
        v.stores[0].0 = false;
        assert!(check_recovered_range(&v).is_empty());
    }

    #[test]
    fn storage_bound_is_a_quiescence_check() {
        let v = view(vec![store(1, 0, 100, &[1, 2, 3, 4, 5])]);
        assert!(check_storage_bounds(&v, 5).is_empty());
        assert_eq!(check_storage_bounds(&v, 4).len(), 1);
    }

    #[test]
    fn replication_requires_items_on_successors() {
        let mut v = view(vec![
            store(1, 80, 20, &[10]),
            store(2, 20, 50, &[30]),
            store(3, 50, 80, &[60]),
        ]);
        // k = 1: each item must be on the next peer.
        let missing = check_replication(&v, 1);
        assert_eq!(missing.len(), 3, "{missing:?}");
        v.replicas.entry(PeerId(2)).or_default().insert(10);
        v.replicas.entry(PeerId(3)).or_default().insert(30);
        v.replicas.entry(PeerId(1)).or_default().insert(60);
        assert!(check_replication(&v, 1).is_empty());
        // A single live peer has nobody to replicate to.
        let solo = view(vec![store(1, 0, 0, &[5])]);
        assert!(check_replication(&solo, 3).is_empty());
    }
}
