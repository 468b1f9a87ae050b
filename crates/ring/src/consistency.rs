//! Global ring invariant checkers.
//!
//! These functions implement the paper's *consistent successor pointers*
//! property (Definition 5 / Theorem 1) and the ring-connectivity property
//! that underlies system availability (Section 5.1). They operate on
//! [`RingSnapshot`]s taken across all peers by the simulation harness — they
//! are oracles used by tests and experiments, not part of the protocol.

use std::collections::{BTreeMap, BTreeSet};

use pepper_types::{PeerId, PeerValue};

use crate::entry::{EntryState, RingPhase, SuccEntry};
use crate::state::RingState;

/// A point-in-time snapshot of one peer's ring state.
#[derive(Debug, Clone)]
pub struct RingSnapshot {
    /// The peer.
    pub id: PeerId,
    /// Its ring value.
    pub value: PeerValue,
    /// Its ring phase.
    pub phase: RingPhase,
    /// Its successor list.
    pub succ_list: Vec<SuccEntry>,
    /// The configured successor-list length `d` (the peer's knowledge
    /// window: entries beyond the `d`-th JOINED successor are best-effort).
    pub target_len: usize,
    /// Whether the peer process is alive (not failed).
    pub alive: bool,
}

impl RingSnapshot {
    /// Takes a snapshot of a ring state.
    pub fn of(state: &RingState, alive: bool) -> Self {
        RingSnapshot {
            id: state.id(),
            value: state.value(),
            phase: state.phase(),
            succ_list: state.succ_list().to_vec(),
            target_len: state.config().succ_list_len,
            alive,
        }
    }

    fn is_joined_member(&self) -> bool {
        self.alive && matches!(self.phase, RingPhase::Joined | RingPhase::Inserting)
    }

    fn is_reachable_member(&self) -> bool {
        self.alive && self.phase.is_member()
    }
}

/// One violated ring invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingViolation {
    /// Human-readable description of what went wrong.
    pub details: String,
    /// The distinct peers `details` names, in first-mention order.
    pub peers: Vec<PeerId>,
}

impl RingViolation {
    /// A violation naming `peers` (repeats dropped) in `details`.
    fn new(details: String, peers: &[PeerId]) -> Self {
        let mut distinct: Vec<PeerId> = Vec::with_capacity(peers.len());
        for p in peers {
            if !distinct.contains(p) {
                distinct.push(*p);
            }
        }
        RingViolation {
            details,
            peers: distinct,
        }
    }
}

/// The result of a consistency / connectivity check.
#[derive(Debug, Clone, Default)]
pub struct ConsistencyReport {
    /// Every violation found.
    pub violations: Vec<RingViolation>,
}

impl ConsistencyReport {
    /// `true` when no violation was found.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }

    /// Merges another report into this one, prefixing each absorbed
    /// violation with `label` so combined reports stay attributable.
    pub fn absorb(&mut self, label: &str, other: ConsistencyReport) {
        self.violations
            .extend(other.violations.into_iter().map(|v| RingViolation {
                details: format!("{label}: {}", v.details),
                ..v
            }));
    }
}

/// Computes the *induced ring* successor function over the live `JOINED`
/// peers: each peer's successor is the next live `JOINED` peer in increasing
/// value order (wrapping around).
///
/// Two live peers can transiently share a value: between a split's
/// `insertSucc` and its hand-off acknowledgement, the new peer already
/// occupies the splitter's value while the splitter has not yet moved down
/// to the boundary. The id tiebreak is arbitrary for such a pair, so it is
/// corrected with direct pointer evidence: the peer whose own first pointer
/// names the other (the inserter) comes first.
fn induced_successors(members: &[&RingSnapshot]) -> BTreeMap<PeerId, PeerId> {
    let mut ordered: Vec<&&RingSnapshot> = members.iter().collect();
    ordered.sort_by_key(|s| (s.value, s.id));
    let n = ordered.len();
    for i in 0..n.saturating_sub(1) {
        if ordered[i].value == ordered[i + 1].value {
            let first_points_at = |s: &RingSnapshot, other: PeerId| {
                s.succ_list.first().map(|e| e.peer) == Some(other)
            };
            if first_points_at(ordered[i + 1], ordered[i].id)
                && !first_points_at(ordered[i], ordered[i + 1].id)
            {
                ordered.swap(i, i + 1);
            }
        }
    }
    let mut succ = BTreeMap::new();
    for i in 0..n {
        succ.insert(ordered[i].id, ordered[(i + 1) % n].id);
    }
    succ
}

/// Checks the *consistent successor pointers* property (Definition 5):
/// for every live `JOINED` peer `p`, the trimmed successor list (restricted
/// to live `JOINED` peers) must not skip over any live `JOINED` peer —
/// `trimList[0]` is `succ(p)` and `trimList[i+1]` is `succ(trimList[i])`.
pub fn check_consistent_successor_pointers(snapshots: &[RingSnapshot]) -> ConsistencyReport {
    let mut report = ConsistencyReport::default();
    let members: Vec<&RingSnapshot> = snapshots.iter().filter(|s| s.is_joined_member()).collect();
    if members.len() <= 1 {
        return report;
    }
    let member_value: BTreeMap<PeerId, PeerValue> =
        members.iter().map(|s| (s.id, s.value)).collect();
    let succ = induced_successors(&members);

    for p in &members {
        // An entry counts as "knowing about" a peer regardless of the entry's
        // own state: during an `insertSucc` the new peer flips to JOINED the
        // moment its successor list is installed, while its predecessors
        // still carry it as a JOINING entry until the next stabilization
        // round. Definition 5 is about *skipping* a live JOINED peer — a
        // JOINING entry for it is knowledge, not a skip. (Entries for peers
        // that are not live JOINED members are trimmed away as before.)
        //
        // One incarnation subtlety: a LEAVING entry whose peer is currently a
        // JOINED member *at a different value* refers to a previous
        // incarnation — the recorded leave completed (there is no
        // leave-cancel transition, see `leave.rs`) and the peer re-entered
        // the ring elsewhere. Such residue awaits the next stabilization
        // trim; counting it as a pointer to the peer's NEW position would
        // misread distant churn as a local skip.
        let trim_list: Vec<PeerId> = p
            .succ_list
            .iter()
            .filter(|e| match member_value.get(&e.peer) {
                None => false,
                Some(current) => !(e.state == EntryState::Leaving && *current != e.value),
            })
            .map(|e| e.peer)
            .collect();
        if trim_list.is_empty() {
            report.violations.push(RingViolation::new(
                format!("peer {} has no pointer to any live JOINED peer", p.id),
                &[p.id],
            ));
            continue;
        }
        // Walk the trimmed list along the induced ring. Stale *duplicate*
        // entries (a peer already covered by the walk, including the list
        // owner itself) stutter the chain without skipping anyone — only an
        // entry that jumps to a peer the walk has not yet reached skips the
        // expected successor.
        let mut expected = succ[&p.id];
        let mut seen: BTreeSet<PeerId> = BTreeSet::new();
        seen.insert(p.id);
        let mut matched = 0usize;
        for (i, got) in trim_list.iter().enumerate() {
            if matched >= p.target_len {
                // Definition 5 only obliges a peer to know its first `d`
                // ring successors. Entries beyond that window (they ride
                // along when JOINING/LEAVING entries lengthen the list) may
                // legitimately lag one membership change behind.
                break;
            }
            if *got == expected {
                seen.insert(*got);
                expected = succ[got];
                matched += 1;
            } else if !seen.contains(got) {
                report.violations.push(RingViolation::new(
                    format!(
                        "peer {}: trimmed successor pointer {} is {} but the ring successor is {} \
                         (a live JOINED peer was skipped)",
                        p.id, i, got, expected
                    ),
                    &[p.id, *got, expected],
                ));
                break;
            }
        }
    }
    report
}

/// Checks ring connectivity: starting from every live member and repeatedly
/// following the first live-member pointer of each successor list, every live
/// member must be reachable.
pub fn check_connectivity(snapshots: &[RingSnapshot]) -> ConsistencyReport {
    let mut report = ConsistencyReport::default();
    let members: Vec<&RingSnapshot> = snapshots
        .iter()
        .filter(|s| s.is_reachable_member())
        .collect();
    if members.len() <= 1 {
        return report;
    }
    let by_id: BTreeMap<PeerId, &RingSnapshot> = members.iter().map(|s| (s.id, *s)).collect();

    // Next-hop function, matching what routing actually does: the first
    // live-member pointer in the JOINED state (scans and routed requests are
    // forwarded along `best_succ`, which skips JOINING/LEAVING entries).
    // When no JOINED pointer exists at all, fall back to any live-member
    // pointer — a ring mid-merge must still count as connected.
    let next = |p: &RingSnapshot| -> Option<PeerId> {
        p.succ_list
            .iter()
            .find(|e| {
                by_id.contains_key(&e.peer) && e.peer != p.id && e.state == EntryState::Joined
            })
            .or_else(|| {
                p.succ_list
                    .iter()
                    .find(|e| by_id.contains_key(&e.peer) && e.peer != p.id)
            })
            .map(|e| e.peer)
    };

    let start = members[0].id;
    let mut visited: BTreeSet<PeerId> = BTreeSet::new();
    let mut current = start;
    for _ in 0..=members.len() * 2 {
        if !visited.insert(current) {
            break;
        }
        match next(by_id[&current]) {
            Some(n) => current = n,
            None => {
                report.violations.push(RingViolation::new(
                    format!("peer {current} has no live successor pointer: the ring is broken"),
                    &[current],
                ));
                break;
            }
        }
    }
    // Only JOINED peers must be on the routing cycle: a LEAVING peer is
    // legitimately bypassed by new traffic while its range hand-off is in
    // flight (it still serves scans it already admitted).
    for m in &members {
        if m.is_joined_member() && !visited.contains(&m.id) {
            report.violations.push(RingViolation::new(
                format!(
                    "peer {} is not reachable by following successor pointers from {}",
                    m.id, start
                ),
                &[m.id, start],
            ));
        }
    }
    report
}

/// Runs both global ring invariants — consistent successor pointers
/// (Definition 5) and connectivity — and returns one combined report with
/// labelled violations. This is the per-step oracle of the simulation
/// harness; on violation, pair it with [`format_ring`] for a full dump.
pub fn check_ring_invariants(snapshots: &[RingSnapshot]) -> ConsistencyReport {
    let mut report = ConsistencyReport::default();
    report.absorb(
        "consistency",
        check_consistent_successor_pointers(snapshots),
    );
    report.absorb("connectivity", check_connectivity(snapshots));
    report
}

/// Renders every peer's ring view as one line per peer — phase, value and
/// the raw successor list — for failure-artifact dumps and debugging.
pub fn format_ring(snapshots: &[RingSnapshot]) -> String {
    let mut ordered: Vec<&RingSnapshot> = snapshots.iter().collect();
    ordered.sort_by_key(|s| (s.value, s.id));
    let mut out = String::new();
    for s in ordered {
        let alive = if s.alive { "alive" } else { "DEAD" };
        let succs: Vec<String> = s
            .succ_list
            .iter()
            .map(|e| format!("{}@{}:{:?}", e.peer, e.value.raw(), e.state))
            .collect();
        out.push_str(&format!(
            "{} value={} phase={:?} {} succ=[{}]\n",
            s.id,
            s.value.raw(),
            s.phase,
            alive,
            succs.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EntryState;

    fn snap(
        id: u64,
        value: u64,
        phase: RingPhase,
        succs: &[(u64, u64)],
        alive: bool,
    ) -> RingSnapshot {
        RingSnapshot {
            id: PeerId(id),
            value: PeerValue(value),
            phase,
            succ_list: succs
                .iter()
                .map(|(p, v)| SuccEntry::joined_stab(PeerId(*p), PeerValue(*v)))
                .collect(),
            target_len: 4,
            alive,
        }
    }

    /// A fully consistent 4-peer ring with d = 2.
    fn consistent_ring() -> Vec<RingSnapshot> {
        vec![
            snap(1, 10, RingPhase::Joined, &[(2, 20), (3, 30)], true),
            snap(2, 20, RingPhase::Joined, &[(3, 30), (4, 40)], true),
            snap(3, 30, RingPhase::Joined, &[(4, 40), (1, 10)], true),
            snap(4, 40, RingPhase::Joined, &[(1, 10), (2, 20)], true),
        ]
    }

    #[test]
    fn consistent_ring_passes_both_checks() {
        let ring = consistent_ring();
        assert!(check_consistent_successor_pointers(&ring).is_consistent());
        assert!(check_connectivity(&ring).is_consistent());
    }

    #[test]
    fn skipped_peer_is_detected() {
        // Peer 4 points at 2 and 3 but not at 1 — it skips over the live
        // JOINED peer 1 (this is exactly the Figure 9 scenario).
        let mut ring = consistent_ring();
        ring[3].succ_list = vec![
            SuccEntry::joined_stab(PeerId(2), PeerValue(20)),
            SuccEntry::joined_stab(PeerId(3), PeerValue(30)),
        ];
        let report = check_consistent_successor_pointers(&ring);
        assert!(!report.is_consistent());
        assert!(report.violations[0].details.contains("p4"));
        // The skipping peer, the pointer it holds and the peer it skipped.
        assert_eq!(
            report.violations[0].peers,
            [PeerId(4), PeerId(2), PeerId(1)]
        );
    }

    #[test]
    fn free_peers_are_exempt() {
        // Peer 9 is free (perhaps being inserted, its join message not yet
        // arrived): pointers to (or missing pointers to) it are not
        // violations.
        let mut ring = consistent_ring();
        ring.push(snap(9, 35, RingPhase::Free, &[], true));
        assert!(check_consistent_successor_pointers(&ring).is_consistent());
    }

    #[test]
    fn joining_entry_for_joined_peer_counts_as_knowledge() {
        // Peer 9 has fully JOINED (its list is installed), but peer 3 still
        // carries it as a JOINING entry until the next stabilization round —
        // exactly the transient mid-insertSucc state. That is knowledge, not
        // a skip: the per-step invariant must hold.
        let mut ring = consistent_ring();
        ring.push(snap(9, 35, RingPhase::Joined, &[(4, 40), (1, 10)], true));
        ring[2].succ_list = vec![
            SuccEntry::new(PeerId(9), PeerValue(35), EntryState::Joining),
            SuccEntry::joined_stab(PeerId(4), PeerValue(40)),
        ];
        // Peer 2 (the predecessor of 3) also needs 9 visible after 3.
        ring[1].succ_list = vec![
            SuccEntry::joined_stab(PeerId(3), PeerValue(30)),
            SuccEntry::new(PeerId(9), PeerValue(35), EntryState::Joining),
        ];
        let report = check_consistent_successor_pointers(&ring);
        assert!(report.is_consistent(), "{:?}", report.violations);
        // But a list with *no* entry at all for the joined peer 9 still
        // skips it (the Figure 9 naive-join scenario).
        ring[2].succ_list = vec![SuccEntry::joined_stab(PeerId(4), PeerValue(40))];
        assert!(!check_consistent_successor_pointers(&ring).is_consistent());
    }

    #[test]
    fn combined_report_labels_violations_and_format_dumps_every_peer() {
        let ring = vec![
            snap(1, 10, RingPhase::Joined, &[(2, 20)], true),
            snap(2, 20, RingPhase::Joined, &[(1, 10)], true),
            snap(3, 30, RingPhase::Joined, &[(4, 40)], true),
            snap(4, 40, RingPhase::Joined, &[(3, 30)], false),
        ];
        let report = check_ring_invariants(&ring);
        assert!(!report.is_consistent());
        assert!(report.violations.iter().any(
            |v| v.details.starts_with("consistency:") || v.details.starts_with("connectivity:")
        ));
        let dump = format_ring(&ring);
        for peer in ["p1", "p2", "p3", "p4"] {
            assert!(dump.contains(peer), "missing {peer} in:\n{dump}");
        }
        assert!(dump.contains("DEAD"));
        // A clean ring yields a clean combined report.
        assert!(check_ring_invariants(&consistent_ring()).is_consistent());
    }

    #[test]
    fn leaving_residue_for_a_rejoined_peer_is_not_a_skip() {
        // Pinned from the macro bench `large` rung, seed 1051, step 3637:
        // p60 left the ring at value ~387M (its range merged into p22) and
        // rejoined at ~895M. p75, two hops behind, still carried the stale
        // `p60:Leaving` entry at the OLD value. Trimming by peer id alone
        // read that residue as a pointer to p60's NEW position and reported
        // p75 as skipping the (perfectly known) p46.
        let mut ring = vec![
            snap(75, 100, RingPhase::Joined, &[(22, 200)], true),
            snap(22, 200, RingPhase::Joined, &[(46, 300)], true),
            snap(46, 300, RingPhase::Joined, &[(60, 900)], true),
            snap(60, 900, RingPhase::Joined, &[(75, 100)], true),
        ];
        ring[0].succ_list = vec![
            SuccEntry::joined_stab(PeerId(22), PeerValue(200)),
            // Residue of p60's completed leave from its old slot at 250.
            SuccEntry::new(PeerId(60), PeerValue(250), EntryState::Leaving),
            SuccEntry::joined_stab(PeerId(46), PeerValue(300)),
        ];
        let report = check_consistent_successor_pointers(&ring);
        assert!(report.is_consistent(), "{:?}", report.violations);

        // But a LEAVING entry at the peer's CURRENT value is still
        // knowledge (nothing proves a second incarnation), and a list that
        // genuinely skips p46 still reds.
        ring[0].succ_list = vec![
            SuccEntry::joined_stab(PeerId(22), PeerValue(200)),
            SuccEntry::new(PeerId(60), PeerValue(900), EntryState::Leaving),
        ];
        let report = check_consistent_successor_pointers(&ring);
        assert!(!report.is_consistent());
        assert_eq!(
            report.violations[0].details,
            "peer p75: trimmed successor pointer 1 is p60 but the ring successor is p46 \
             (a live JOINED peer was skipped)"
        );
        assert_eq!(
            report.violations[0].peers,
            [PeerId(75), PeerId(60), PeerId(46)]
        );
    }

    #[test]
    fn dead_peers_are_ignored() {
        let mut ring = consistent_ring();
        // Peer 2 fails: pointers to it are trimmed away; the remaining lists
        // still chain correctly (1 -> 3 via its second pointer).
        ring[1].alive = false;
        let report = check_consistent_successor_pointers(&ring);
        assert!(report.is_consistent(), "{:?}", report.violations);
    }

    #[test]
    fn single_or_empty_ring_is_trivially_consistent() {
        assert!(check_consistent_successor_pointers(&[]).is_consistent());
        let one = vec![snap(1, 10, RingPhase::Joined, &[(1, 10)], true)];
        assert!(check_consistent_successor_pointers(&one).is_consistent());
        assert!(check_connectivity(&one).is_consistent());
    }

    #[test]
    fn disconnection_is_detected() {
        // Figure 14: peer 5's only pointers refer to the departed peer 7 and
        // the failed peer 1 — the ring is disconnected.
        let ring = vec![
            snap(5, 50, RingPhase::Joined, &[(7, 70), (1, 10)], true),
            snap(7, 70, RingPhase::Free, &[], true), // departed
            snap(1, 10, RingPhase::Joined, &[(5, 50)], false), // failed
            snap(2, 20, RingPhase::Joined, &[(5, 50), (7, 70)], true),
        ];
        let report = check_connectivity(&ring);
        assert!(!report.is_consistent());
    }

    #[test]
    fn connectivity_detects_unreachable_member() {
        // Two disjoint two-peer loops.
        let ring = vec![
            snap(1, 10, RingPhase::Joined, &[(2, 20)], true),
            snap(2, 20, RingPhase::Joined, &[(1, 10)], true),
            snap(3, 30, RingPhase::Joined, &[(4, 40)], true),
            snap(4, 40, RingPhase::Joined, &[(3, 30)], true),
        ];
        let report = check_connectivity(&ring);
        let implicated: Vec<&[PeerId]> = report.violations.iter().map(|v| &v.peers[..]).collect();
        assert_eq!(implicated, [[PeerId(3), PeerId(1)], [PeerId(4), PeerId(1)]]);
    }

    #[test]
    fn leaving_peers_count_for_connectivity_but_not_joined_consistency() {
        let mut ring = consistent_ring();
        ring[2].phase = RingPhase::Leaving;
        // Consistency: peer 3 (LEAVING) is excluded from the JOINED member
        // set, and lists that still contain it simply skip it after trimming.
        assert!(check_consistent_successor_pointers(&ring).is_consistent());
        // Connectivity: it still routes traffic.
        assert!(check_connectivity(&ring).is_consistent());
    }
}
