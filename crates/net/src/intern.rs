//! Dense peer interning: `PeerId` → `u32` slot indices.
//!
//! The simulator's hot paths (event dispatch, aliveness checks, the
//! revive delivery floor) used to go through `BTreeMap<PeerId, _>` /
//! `BTreeSet<PeerId>` lookups — a pointer chase per event. [`PeerTable`]
//! interns every registered peer to a dense `u32` index so those maps
//! become flat `Vec`s indexed by slot: one predictable cache line per
//! check.
//!
//! Interning is stable for the lifetime of a peer id: a killed and later
//! revived peer keeps its dense slot (the table only ever grows with the
//! number of *distinct* registered ids, never with churn). Iteration
//! helpers preserve the increasing-`PeerId` order the public simulator
//! API guarantees, even when test code registers ids out of order.

use std::collections::BTreeMap;

use pepper_types::PeerId;

/// Sentinel for "this raw id is not interned".
pub(crate) const DENSE_NONE: u32 = u32::MAX;

/// Raw ids below this bound resolve through a flat lookup vector; larger
/// ids (never produced by `add_node`, but legal through
/// `add_node_with_id`) fall back to an ordered map.
const SMALL_RAW_LIMIT: u64 = 1 << 20;

/// Dense-slot storage for every per-peer attribute the simulator tracks.
pub(crate) struct PeerTable<N> {
    /// raw id → dense slot for raw ids `< SMALL_RAW_LIMIT`.
    small: Vec<u32>,
    /// raw id → dense slot fallback for sparse/huge raw ids.
    large: BTreeMap<u64, u32>,
    /// dense slot → raw id.
    raw: Vec<PeerId>,
    /// dense slot → node state (never removed; dead nodes stay inspectable).
    nodes: Vec<N>,
    /// dense slot → liveness flag.
    alive: Vec<bool>,
    /// dense slot → revive delivery floor (events with `seq <` floor are
    /// stale deliveries aimed at a previous incarnation).
    floor: Vec<u64>,
    /// Dense slots sorted by raw id — the public iteration order.
    order: Vec<u32>,
    alive_count: usize,
}

impl<N> PeerTable<N> {
    pub(crate) fn new() -> Self {
        PeerTable {
            small: Vec::new(),
            large: BTreeMap::new(),
            raw: Vec::new(),
            nodes: Vec::new(),
            alive: Vec::new(),
            floor: Vec::new(),
            order: Vec::new(),
            alive_count: 0,
        }
    }

    /// Number of interned peers (alive and dead).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.raw.len()
    }

    /// Resolves a raw id to its dense slot, or [`DENSE_NONE`].
    #[inline]
    pub(crate) fn dense(&self, id: PeerId) -> u32 {
        let r = id.raw();
        if (r as usize) < self.small.len() {
            self.small[r as usize]
        } else if r < SMALL_RAW_LIMIT {
            DENSE_NONE
        } else {
            self.large.get(&r).copied().unwrap_or(DENSE_NONE)
        }
    }

    pub(crate) fn contains(&self, id: PeerId) -> bool {
        self.dense(id) != DENSE_NONE
    }

    /// Interns `id` with its initial node state, returning the new dense
    /// slot. Panics if the id is already interned.
    pub(crate) fn intern(&mut self, id: PeerId, node: N) -> u32 {
        assert!(!self.contains(id), "peer id {id} already registered");
        let dense = self.raw.len() as u32;
        let r = id.raw();
        if r < SMALL_RAW_LIMIT {
            if self.small.len() <= r as usize {
                self.small.resize(r as usize + 1, DENSE_NONE);
            }
            self.small[r as usize] = dense;
        } else {
            self.large.insert(r, dense);
        }
        self.raw.push(id);
        self.nodes.push(node);
        self.alive.push(true);
        self.floor.push(0);
        self.alive_count += 1;
        // Keep `order` sorted by raw id (insertion is rare; lookups are hot).
        let pos = self.order.partition_point(|&d| self.raw[d as usize] < id);
        self.order.insert(pos, dense);
        dense
    }

    #[inline]
    pub(crate) fn raw_of(&self, dense: u32) -> PeerId {
        self.raw[dense as usize]
    }

    #[inline]
    pub(crate) fn node(&self, dense: u32) -> &N {
        &self.nodes[dense as usize]
    }

    #[inline]
    pub(crate) fn node_mut(&mut self, dense: u32) -> &mut N {
        &mut self.nodes[dense as usize]
    }

    /// Replaces the node state in a slot (crash-restart revival).
    pub(crate) fn replace_node(&mut self, dense: u32, node: N) {
        self.nodes[dense as usize] = node;
    }

    #[inline]
    pub(crate) fn is_alive_dense(&self, dense: u32) -> bool {
        self.alive[dense as usize]
    }

    #[inline]
    pub(crate) fn is_alive(&self, id: PeerId) -> bool {
        let d = self.dense(id);
        d != DENSE_NONE && self.alive[d as usize]
    }

    /// Marks a slot dead. Returns `true` if it was alive.
    pub(crate) fn set_dead(&mut self, dense: u32) -> bool {
        if self.alive[dense as usize] {
            self.alive[dense as usize] = false;
            self.alive_count -= 1;
            true
        } else {
            false
        }
    }

    /// Marks a slot alive again (revive). The slot — and with it the dense
    /// index — is reused: churn never grows the table.
    pub(crate) fn set_alive(&mut self, dense: u32) {
        if !self.alive[dense as usize] {
            self.alive[dense as usize] = true;
            self.alive_count += 1;
        }
    }

    #[inline]
    pub(crate) fn floor(&self, dense: u32) -> u64 {
        self.floor[dense as usize]
    }

    pub(crate) fn set_floor(&mut self, dense: u32, floor: u64) {
        self.floor[dense as usize] = floor;
    }

    pub(crate) fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Dense slots in increasing raw-id order.
    pub(crate) fn order(&self) -> &[u32] {
        &self.order
    }

    /// Mutable iteration over every node in increasing raw-id order.
    pub(crate) fn iter_mut_ordered(&mut self) -> impl Iterator<Item = (PeerId, &mut N)> + '_ {
        // `order` holds each dense slot exactly once, so every slot is taken
        // exactly once.
        let mut slots: Vec<Option<&mut N>> = self.nodes.iter_mut().map(Some).collect();
        let raw = &self.raw;
        self.order.iter().map(move |&d| {
            let node = slots[d as usize].take().expect("slot listed once");
            (raw[d as usize], node)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interns_sequential_ids_densely() {
        let mut t: PeerTable<u32> = PeerTable::new();
        for i in 0..8 {
            assert_eq!(t.intern(PeerId(i), i as u32), i as u32);
        }
        assert_eq!(t.len(), 8);
        assert_eq!(t.dense(PeerId(3)), 3);
        assert_eq!(t.dense(PeerId(99)), DENSE_NONE);
        assert!(!t.contains(PeerId(99)));
    }

    #[test]
    fn kill_and_revive_reuse_the_same_slot() {
        let mut t: PeerTable<&'static str> = PeerTable::new();
        let d = t.intern(PeerId(0), "first");
        t.intern(PeerId(1), "other");
        let len_before = t.len();
        assert!(t.set_dead(d));
        assert!(!t.set_dead(d), "double-kill is a no-op");
        assert_eq!(t.alive_count(), 1);
        // Revival re-targets the SAME dense slot: the table must not grow.
        t.set_floor(d, 42);
        t.replace_node(d, "second incarnation");
        t.set_alive(d);
        assert_eq!(t.dense(PeerId(0)), d, "dense index survives churn");
        assert_eq!(t.len(), len_before, "revive must not allocate a slot");
        assert_eq!(t.alive_count(), 2);
        assert_eq!(*t.node(d), "second incarnation");
        assert_eq!(t.floor(d), 42);
    }

    #[test]
    fn out_of_order_and_sparse_ids_keep_sorted_iteration() {
        let mut t: PeerTable<()> = PeerTable::new();
        t.intern(PeerId(5), ());
        t.intern(PeerId(1), ());
        t.intern(PeerId(u64::MAX - 1), ()); // large-id fallback path
        t.intern(PeerId(3), ());
        let ids: Vec<PeerId> = t.order().iter().map(|&d| t.raw_of(d)).collect();
        assert_eq!(
            ids,
            vec![PeerId(1), PeerId(3), PeerId(5), PeerId(u64::MAX - 1)]
        );
        assert_eq!(t.dense(PeerId(u64::MAX - 1)), 2);
        assert_eq!(t.dense(PeerId(u64::MAX - 2)), DENSE_NONE);
    }

    #[test]
    fn iter_mut_ordered_yields_every_slot_once_in_id_order() {
        let mut t: PeerTable<u64> = PeerTable::new();
        let ids = [5, 1, u64::MAX - 1, 3, 0];
        for id in ids {
            t.intern(PeerId(id), id);
        }
        let mut seen = Vec::new();
        for (id, node) in t.iter_mut_ordered() {
            assert_eq!(*node, id.raw(), "the slot handed out belongs to its id");
            *node += 1;
            seen.push(id.raw());
        }
        assert_eq!(seen, vec![0, 1, 3, 5, u64::MAX - 1]);
        // Every slot was visited exactly once: each node was bumped once.
        for id in ids {
            assert_eq!(*t.node(t.dense(PeerId(id))), id.wrapping_add(1));
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn double_intern_panics() {
        let mut t: PeerTable<()> = PeerTable::new();
        t.intern(PeerId(7), ());
        t.intern(PeerId(7), ());
    }
}
