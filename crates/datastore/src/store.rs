//! The local item store of one peer.
//!
//! Items are keyed by their *mapped* value `M(i.skv)` so that range
//! operations (collecting the items of a scan sub-range, finding a split
//! point, handing off a sub-range) are cheap ordered-map operations.

use std::collections::BTreeMap;

use pepper_types::{CircularRange, Item, KeyInterval};

/// An ordered collection of items keyed by mapped value.
#[derive(Debug, Clone, Default)]
pub struct ItemStore {
    map: BTreeMap<u64, Item>,
    /// Bumped by every mutator (the only writers of `map`), so equal
    /// versions of one store mean an unchanged item set. It lets the
    /// replication refresh reuse the batch it built last round.
    version: u64,
}

/// Two stores are equal when they hold the same items, whatever sequence of
/// mutations built them.
impl PartialEq for ItemStore {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

impl Eq for ItemStore {}

impl ItemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ItemStore::default()
    }

    /// Number of items stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Inserts an item under its mapped value. Returns the previous item
    /// stored under the same mapped value, if any.
    pub fn insert(&mut self, mapped: u64, item: Item) -> Option<Item> {
        self.version += 1;
        self.map.insert(mapped, item)
    }

    /// Removes the item stored under `mapped`.
    pub fn remove(&mut self, mapped: u64) -> Option<Item> {
        self.version += 1;
        self.map.remove(&mapped)
    }

    /// The mutation counter: unchanged between two reads means the item set
    /// is unchanged (the converse does not hold — a mutator that finds
    /// nothing to do still counts).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Returns the item stored under `mapped`, if any.
    pub fn get(&self, mapped: u64) -> Option<&Item> {
        self.map.get(&mapped)
    }

    /// Returns `true` iff an item is stored under `mapped`.
    pub fn contains(&self, mapped: u64) -> bool {
        self.map.contains_key(&mapped)
    }

    /// All items, in mapped-value order.
    pub fn items(&self) -> impl Iterator<Item = (&u64, &Item)> {
        self.map.iter()
    }

    /// All items as owned clones, in mapped-value order.
    pub fn to_vec(&self) -> Vec<(u64, Item)> {
        self.map.iter().map(|(k, v)| (*k, v.clone())).collect()
    }

    /// The items whose mapped value lies in the closed interval.
    pub fn items_in_interval(&self, iv: &KeyInterval) -> Vec<Item> {
        self.map
            .range(iv.lo()..=iv.hi())
            .map(|(_, v)| v.clone())
            .collect()
    }

    /// The items whose mapped value lies in the circular range.
    pub fn items_in_range(&self, range: &CircularRange) -> Vec<(u64, Item)> {
        self.map
            .iter()
            .filter(|(k, _)| range.contains(**k))
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// Removes and returns the items whose mapped value lies in the circular
    /// range (used by hand-offs).
    pub fn take_range(&mut self, range: &CircularRange) -> Vec<(u64, Item)> {
        self.version += 1;
        let keys: Vec<u64> = self
            .map
            .keys()
            .filter(|k| range.contains(**k))
            .copied()
            .collect();
        keys.into_iter()
            .map(|k| (k, self.map.remove(&k).expect("key collected above")))
            .collect()
    }

    /// Bulk-inserts items.
    pub fn extend(&mut self, items: impl IntoIterator<Item = (u64, Item)>) {
        self.version += 1;
        self.map.extend(items);
    }

    /// The stored mapped values in *ring order* for the given responsibility
    /// range: starting just after `range.low()` and wrapping around the top
    /// of the domain if the range does. For a non-wrapping range this is
    /// plain ascending order.
    fn keys_in_ring_order(&self, range: &CircularRange) -> Vec<u64> {
        let low = range.low().raw();
        let mut upper: Vec<u64> = self.map.keys().copied().filter(|k| *k > low).collect();
        let wrapped: Vec<u64> = self.map.keys().copied().filter(|k| *k <= low).collect();
        upper.extend(wrapped);
        upper
    }

    /// Chooses a split point: the mapped value `mid` such that roughly half
    /// of the items lie in `(range.low, mid]` in ring order (those stay) and
    /// the rest in `(mid, range.high]` (those move to the new peer). Ring
    /// order matters: for a *wrapping* range, plain ascending order would
    /// pick a boundary with almost everything on one side. Returns `None`
    /// for stores with fewer than two items.
    pub fn split_point(&self, range: &CircularRange) -> Option<u64> {
        if self.map.len() < 2 {
            return None;
        }
        let keep = self.map.len() / 2;
        self.keys_in_ring_order(range).get(keep - 1).copied()
    }

    /// Chooses a redistribution point for giving the *lower* portion of this
    /// store to the predecessor: returns the mapped value `mid` such that
    /// `give` items lie in `(range.low, mid]` in ring order. Returns `None`
    /// if `give` is zero or not smaller than the store size.
    pub fn redistribute_point(&self, give: usize, range: &CircularRange) -> Option<u64> {
        if give == 0 || give >= self.map.len() {
            return None;
        }
        self.keys_in_ring_order(range).get(give - 1).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepper_types::SearchKey;

    fn item(k: u64) -> Item {
        Item::for_key(SearchKey(k))
    }

    fn store_with(keys: &[u64]) -> ItemStore {
        let mut s = ItemStore::new();
        for &k in keys {
            s.insert(k, item(k));
        }
        s
    }

    #[test]
    fn insert_get_remove() {
        let mut s = ItemStore::new();
        assert!(s.is_empty());
        assert!(s.insert(5, item(5)).is_none());
        assert!(s.contains(5));
        assert_eq!(s.get(5).unwrap().skv, SearchKey(5));
        assert_eq!(s.len(), 1);
        // Replacing under the same mapped value returns the old item.
        assert!(s.insert(5, item(5)).is_some());
        assert_eq!(s.remove(5).unwrap().skv, SearchKey(5));
        assert!(s.remove(5).is_none());
    }

    #[test]
    fn interval_and_range_queries() {
        let s = store_with(&[1, 5, 8, 12, 20]);
        let iv = KeyInterval::new(5, 12).unwrap();
        let got: Vec<u64> = s
            .items_in_interval(&iv)
            .iter()
            .map(|i| i.skv.raw())
            .collect();
        assert_eq!(got, vec![5, 8, 12]);
        let r = CircularRange::new(8u64, 20u64);
        let got: Vec<u64> = s.items_in_range(&r).iter().map(|(k, _)| *k).collect();
        assert_eq!(got, vec![12, 20]);
        // Wrapping range.
        let r = CircularRange::new(12u64, 5u64);
        let got: Vec<u64> = s.items_in_range(&r).iter().map(|(k, _)| *k).collect();
        assert_eq!(got, vec![1, 5, 20]);
    }

    #[test]
    fn take_range_removes_items() {
        let mut s = store_with(&[1, 5, 8, 12, 20]);
        let taken = s.take_range(&CircularRange::new(5u64, 12u64));
        let keys: Vec<u64> = taken.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![8, 12]);
        assert_eq!(s.len(), 3);
        assert!(!s.contains(8));
        assert!(s.contains(5)); // 5 is excluded by the half-open low bound
    }

    #[test]
    fn extend_and_drain() {
        let mut s = store_with(&[1, 2]);
        s.extend(vec![(3, item(3)), (4, item(4))]);
        assert_eq!(s.len(), 4);
        let drained = s.take_range(&CircularRange::full(0u64));
        assert_eq!(drained.len(), 4);
        assert!(s.is_empty());
    }

    #[test]
    fn every_mutator_moves_the_version_and_equality_ignores_it() {
        let mut s = store_with(&[1, 5, 8]);
        let mut seen = vec![s.version()];
        s.insert(9, item(9));
        seen.push(s.version());
        s.remove(9);
        seen.push(s.version());
        s.take_range(&CircularRange::new(4u64, 5u64));
        seen.push(s.version());
        s.extend(vec![(5, item(5))]);
        seen.push(s.version());
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "{seen:?}");
        // Reads leave it alone.
        s.get(5);
        s.to_vec();
        s.split_point(&CircularRange::full(100u64));
        assert_eq!(s.version(), *seen.last().unwrap());
        // Same items through a different history: equal stores.
        assert_eq!(s, store_with(&[1, 5, 8]));
        assert_ne!(s.version(), store_with(&[1, 5, 8]).version());
        let before = s.version();
        s.take_range(&CircularRange::full(0u64));
        assert!(s.version() > before);
    }

    #[test]
    fn split_point_halves_the_store() {
        let s = store_with(&[10, 20, 30, 40, 50]);
        // keep = 2 items (10, 20), move 30..50.
        let full = CircularRange::full(100u64);
        assert_eq!(s.split_point(&full), Some(20));
        let s = store_with(&[10, 20, 30, 40]);
        assert_eq!(s.split_point(&full), Some(20));
        assert_eq!(store_with(&[10]).split_point(&full), None);
        assert_eq!(ItemStore::new().split_point(&full), None);
    }

    #[test]
    fn redistribute_point_gives_lower_portion() {
        let s = store_with(&[10, 20, 30, 40, 50]);
        let range = CircularRange::new(0u64, 100u64);
        assert_eq!(s.redistribute_point(2, &range), Some(20));
        assert_eq!(s.redistribute_point(0, &range), None);
        assert_eq!(s.redistribute_point(5, &range), None);
        assert_eq!(s.redistribute_point(6, &range), None);
    }

    #[test]
    fn split_and_redistribute_points_follow_ring_order_on_wrapping_ranges() {
        // Range (80, 40] wraps: ring order of the items is 90, 95, 10, 20.
        let s = store_with(&[10, 20, 90, 95]);
        let range = CircularRange::new(80u64, 40u64);
        // Keep half in ring order: (80, 95] stays, (95, 40] moves.
        assert_eq!(s.split_point(&range), Some(95));
        // Give one item to the predecessor: boundary after 90.
        assert_eq!(s.redistribute_point(1, &range), Some(90));
        assert_eq!(s.redistribute_point(3, &range), Some(10));
    }

    #[test]
    fn ordering_is_by_mapped_value() {
        let s = store_with(&[50, 1, 30]);
        let keys: Vec<u64> = s.items().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 30, 50]);
        assert_eq!(s.to_vec().len(), 3);
    }
}
