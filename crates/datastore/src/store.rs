//! The local item store of one peer: items keyed by their *mapped* value
//! `M(i.skv)` in one [`VecMap`], with a version and ring-order split points.

use std::ops::Deref;

use pepper_types::{CircularRange, Item, KeyInterval, VecMap};

/// An ordered collection of items keyed by mapped value. It reads as its
/// [`VecMap`] (through `Deref`); every write goes through its own mutators,
/// which count a version.
#[derive(Debug, Clone, Default)]
pub struct ItemStore {
    map: VecMap<u64, Item>,
    /// Bumped by every mutator (the only writers of `map`), so equal
    /// versions of one store mean an unchanged item set. It lets
    /// `ReplicationManager::refresh` skip a round that would push the
    /// same items again.
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

impl Deref for ItemStore {
    type Target = VecMap<u64, Item>;

    fn deref(&self) -> &VecMap<u64, Item> {
        &self.map
    }
}

impl ItemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ItemStore::default()
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

    /// The items whose mapped value lies in the closed interval.
    pub fn items_in_interval(&self, iv: &KeyInterval) -> Vec<Item> {
        self.map
            .interval(iv)
            .iter()
            .map(|(_, v)| v.clone())
            .collect()
    }

    /// The items whose mapped value lies in the circular range, in
    /// mapped-value order.
    pub fn items_in_range(&self, range: &CircularRange) -> Vec<(u64, Item)> {
        self.map
            .runs(range)
            .into_iter()
            .flatten()
            .cloned()
            .collect()
    }

    /// Removes and returns the items whose mapped value lies in the circular
    /// range (used by hand-offs), in mapped-value order.
    pub fn take_range(&mut self, range: &CircularRange) -> Vec<(u64, Item)> {
        self.version += 1;
        self.map.take_runs(range)
    }

    /// Bulk-inserts items; a mapped value written twice keeps the last item.
    pub fn extend(&mut self, items: impl IntoIterator<Item = (u64, Item)>) {
        self.version += 1;
        self.map.extend(items);
    }

    /// Chooses a split point: the mapped value `mid` such that roughly half
    /// of the items lie in `(range.low, mid]` in ring order (those stay) and
    /// the rest in `(mid, range.high]` (those move to the new peer). Ring
    /// order — the stored values above `range.low`, then those up to it —
    /// matters: for a *wrapping* range, plain ascending order would pick a
    /// boundary with almost everything on one side. Returns `None` for
    /// stores with fewer than two items.
    pub fn split_point(&self, range: &CircularRange) -> Option<u64> {
        if self.map.len() < 2 {
            return None;
        }
        let keep = self.map.len() / 2;
        self.map.nth_after(range.low().raw(), keep - 1)
    }

    /// Chooses a redistribution point for giving the *lower* portion of this
    /// store to the predecessor: returns the mapped value `mid` such that
    /// `give` items lie in `(range.low, mid]` in ring order. Returns `None`
    /// if `give` is zero or not smaller than the store size.
    pub fn redistribute_point(&self, give: usize, range: &CircularRange) -> Option<u64> {
        if give == 0 || give >= self.map.len() {
            return None;
        }
        self.map.nth_after(range.low().raw(), give - 1)
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
        assert!(s.contains_key(&5));
        assert_eq!(s.get(&5).unwrap().skv, SearchKey(5));
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
        assert!(!s.contains_key(&8));
        assert!(s.contains_key(&5)); // 5 is excluded by the half-open low bound
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
        s.get(&5);
        s.items_in_range(&CircularRange::full(0u64));
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

    /// The rule both points followed when they sorted the keys into ring
    /// order: the keys above `range.low`, then the keys up to it.
    fn old_ring_order(s: &ItemStore, range: &CircularRange) -> Vec<u64> {
        let low = range.low().raw();
        let keys = || s.as_slice().iter().map(|(k, _)| *k);
        keys()
            .filter(|k| *k > low)
            .chain(keys().filter(|k| *k <= low))
            .collect()
    }

    #[test]
    fn split_and_redistribute_points_match_the_ring_order_rule_on_random_stores() {
        // SplitMix64 over a small domain with both ends of `u64` in it.
        let mut state = 7u64;
        let mut next = move |n: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let v = (z ^ (z >> 31)) % (n + 2);
            [0, u64::MAX].get(v as usize).copied().unwrap_or(v)
        };
        for _ in 0..500 {
            let len = next(40) as usize % 40;
            let s = store_with(&(0..len).map(|_| next(200)).collect::<Vec<_>>());
            let (low, high) = (next(200), next(200));
            for range in [
                CircularRange::new(low, high),
                CircularRange::full(high),
                CircularRange::empty(high),
            ] {
                let ring = old_ring_order(&s, &range);
                let split = (s.len() >= 2).then(|| ring[s.len() / 2 - 1]);
                assert_eq!(s.split_point(&range), split, "{range} {ring:?}");
                for give in 0..=s.len() + 1 {
                    let want = (give > 0 && give < s.len()).then(|| ring[give - 1]);
                    assert_eq!(s.redistribute_point(give, &range), want, "{give} {range}");
                }
            }
        }
    }

    #[test]
    fn ordering_is_by_mapped_value() {
        let s = store_with(&[50, 1, 30]);
        let keys: Vec<u64> = s.as_slice().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 30, 50]);
    }
}
