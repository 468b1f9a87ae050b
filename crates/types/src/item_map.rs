//! [`ItemMap`]: items keyed by mapped value, in one flat sorted array.
//!
//! A peer's Data Store and its replica store each hold a few to a few
//! hundred `(mapped, item)` pairs, and every range operation on them — a
//! scan step's interval, a hand-off's circular range, a split point in ring
//! order — is a contiguous run of the sorted pairs. A `Vec` sorted by mapped
//! value answers each one with a binary search and a slice, iterates in the
//! same ascending order an ordered map does, and spends no node headers or
//! half-empty nodes on small maps. Spare capacity is bounded, at most
//! `len / 8 + 4` pairs, so that many small maps stay small.

use std::fmt;
use std::ops::Range;

use crate::item::Item;
use crate::range::{CircularRange, KeyInterval};

/// The most spare entries a map of `len` entries keeps: an eighth of its
/// length plus four. Growth and shrinking both aim at half of it, so an
/// insert after a shrink (or a removal after a growth) reallocates nothing.
const fn max_spare(len: usize) -> usize {
    len / 8 + 4
}

/// `(mapped, item)` pairs sorted by mapped value, one pair per mapped value.
///
/// Iteration is ascending by mapped value everywhere, and `Debug` prints
/// the pairs as a map, `{mapped: item, …}`, like an ordered map would.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ItemMap {
    entries: Vec<(u64, Item)>,
}

impl ItemMap {
    /// Creates an empty map (no allocation).
    pub const fn new() -> Self {
        ItemMap {
            entries: Vec::new(),
        }
    }

    /// Number of pairs stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Spare capacity: room allocated but not used. It never exceeds
    /// [`max_spare`] after a mutation.
    fn spare(&self) -> usize {
        self.entries.capacity() - self.entries.len()
    }

    /// All pairs, in ascending mapped-value order.
    pub fn as_slice(&self) -> &[(u64, Item)] {
        &self.entries
    }

    /// All pairs, in ascending mapped-value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Item)> + '_ {
        self.entries.iter().map(|(mapped, item)| (*mapped, item))
    }

    /// The item stored under `mapped`, if any.
    pub fn get(&self, mapped: u64) -> Option<&Item> {
        self.search(mapped).ok().map(|i| &self.entries[i].1)
    }

    /// Returns `true` iff an item is stored under `mapped`.
    pub fn contains(&self, mapped: u64) -> bool {
        self.search(mapped).is_ok()
    }

    /// Stores `item` under `mapped` and returns the item it replaced.
    pub fn insert(&mut self, mapped: u64, item: Item) -> Option<Item> {
        match self.search(mapped) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, item)),
            Err(i) => {
                self.reserve(1);
                self.entries.insert(i, (mapped, item));
                None
            }
        }
    }

    /// Removes and returns the item stored under `mapped`.
    pub fn remove(&mut self, mapped: u64) -> Option<Item> {
        let i = self.search(mapped).ok()?;
        let (_, item) = self.entries.remove(i);
        self.trim();
        Some(item)
    }

    /// Stores every pair of `items`, in any order. Where a mapped value
    /// repeats, in `items` or against the map, the last write wins.
    pub fn extend(&mut self, items: impl IntoIterator<Item = (u64, Item)>) {
        let items = items.into_iter();
        self.reserve(items.size_hint().0);
        let old = self.entries.len();
        self.entries.extend(items);
        // The old pairs are sorted and unique, so only an appended run that
        // does not climb strictly above them needs sorting. The sort is
        // stable: equal mapped values stay in write order, and the dedup
        // swaps each later write into the slot it keeps.
        let appended = &self.entries[old.saturating_sub(1)..];
        if appended.windows(2).any(|w| w[0].0 >= w[1].0) {
            self.entries.sort_by_key(|(mapped, _)| *mapped);
            self.entries.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    std::mem::swap(later, kept);
                }
                same
            });
        }
        self.trim();
    }

    /// Keeps only the pairs for which `keep` returns `true`.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, &Item) -> bool) {
        self.entries.retain(|(mapped, item)| keep(*mapped, item));
        self.trim();
    }

    /// The pairs whose mapped value lies in the closed interval.
    pub fn interval(&self, iv: &KeyInterval) -> &[(u64, Item)] {
        let start = self.rank_below(iv.lo());
        let end = self.rank(iv.hi());
        &self.entries[start..end]
    }

    /// The pairs whose mapped value lies in `range`, as at most two runs in
    /// ascending mapped-value order: a wrapping range `(low, high]` is the
    /// run `[0, high]` followed by the run `(low, MAX]`.
    pub fn runs(&self, range: &CircularRange) -> [&[(u64, Item)]; 2] {
        let [a, b] = self.run_bounds(range);
        [&self.entries[a], &self.entries[b]]
    }

    /// Removes and returns the pairs whose mapped value lies in `range`, in
    /// ascending mapped-value order.
    pub fn take_runs(&mut self, range: &CircularRange) -> Vec<(u64, Item)> {
        let [a, b] = self.run_bounds(range);
        let mut taken = Vec::with_capacity(a.len() + b.len());
        let shift = a.len();
        taken.extend(self.entries.drain(a));
        taken.extend(self.entries.drain(b.start - shift..b.end - shift));
        self.trim();
        taken
    }

    /// Removes the pairs whose mapped value lies in `range`.
    pub fn remove_runs(&mut self, range: &CircularRange) {
        let [a, b] = self.run_bounds(range);
        // The later run first, so the earlier one's indices stay valid.
        self.entries.drain(b);
        self.entries.drain(a);
        self.trim();
    }

    /// The `n`-th stored mapped value (counting from zero) in *ring order*
    /// after `low`: the values above `low` ascending, then, wrapping around
    /// the top of the domain, the values up to `low` ascending. `None` when
    /// fewer than `n + 1` pairs are stored.
    pub fn nth_after(&self, low: u64, n: usize) -> Option<u64> {
        let len = self.entries.len();
        (n < len).then(|| self.entries[(self.rank(low) + n) % len].0)
    }

    /// Index of `mapped`, or where it would be inserted.
    fn search(&self, mapped: u64) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&mapped, |(k, _)| *k)
    }

    /// Number of pairs whose mapped value is at most `v`.
    fn rank(&self, v: u64) -> usize {
        self.entries.partition_point(|(k, _)| *k <= v)
    }

    /// Number of pairs whose mapped value is below `v`.
    fn rank_below(&self, v: u64) -> usize {
        self.entries.partition_point(|(k, _)| *k < v)
    }

    /// The index runs of [`Self::runs`]; the second starts at or after the
    /// end of the first.
    fn run_bounds(&self, range: &CircularRange) -> [Range<usize>; 2] {
        let len = self.entries.len();
        if range.is_full() {
            return [0..len, len..len];
        }
        if range.is_empty() {
            return [0..0, 0..0];
        }
        let (low, high) = (range.low().raw(), range.high().raw());
        let (low_rank, high_rank) = (self.rank(low), self.rank(high));
        if low < high {
            [low_rank..high_rank, high_rank..high_rank]
        } else {
            [0..high_rank, low_rank..len]
        }
    }

    /// Makes room for `additional` more pairs, leaving half the bounded
    /// spare capacity when it has to grow.
    fn reserve(&mut self, additional: usize) {
        let len = self.entries.len();
        let need = len + additional;
        if need > self.entries.capacity() {
            self.entries.reserve_exact(need + max_spare(need) / 2 - len);
        }
    }

    /// Gives back spare capacity beyond the bound, down to half of it.
    fn trim(&mut self) {
        let len = self.entries.len();
        if self.spare() > max_spare(len) {
            self.entries.shrink_to(len + max_spare(len) / 2);
        }
    }
}

impl fmt::Debug for ItemMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(mapped, item)| (mapped, item)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::{ItemId, PeerId, SearchKey};

    /// An item whose payload records which write stored it.
    fn item(mapped: u64, write: u64) -> Item {
        Item::new(
            ItemId::new(PeerId(write), mapped),
            SearchKey(mapped),
            write.to_string(),
        )
    }

    /// SplitMix64: a small seeded generator, enough to drive the sequences.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A mapped value from a small domain (so writes collide), now and
        /// then one at either end of `u64`.
        fn key(&mut self) -> u64 {
            match self.below(16) {
                0 => 0,
                1 => u64::MAX - self.below(3),
                _ => self.below(96),
            }
        }

        fn range(&mut self) -> CircularRange {
            let (low, high) = (self.key(), self.key());
            match self.below(8) {
                0 => CircularRange::full(high),
                1 => CircularRange::empty(high),
                _ => CircularRange::new(low, high),
            }
        }
    }

    /// The ring-order rule the stores used before: the keys above `low`
    /// ascending, then the keys up to `low` ascending.
    fn ring_order(reference: &BTreeMap<u64, Item>, low: u64) -> Vec<u64> {
        let upper = reference.keys().copied().filter(|k| *k > low);
        upper
            .chain(reference.keys().copied().filter(|k| *k <= low))
            .collect()
    }

    fn map_of(items: impl IntoIterator<Item = (u64, Item)>) -> ItemMap {
        let mut map = ItemMap::new();
        map.extend(items);
        map
    }

    fn pairs<'a>(runs: impl IntoIterator<Item = &'a [(u64, Item)]>) -> Vec<(u64, Item)> {
        runs.into_iter().flatten().cloned().collect()
    }

    fn check(map: &ItemMap, reference: &BTreeMap<u64, Item>, rng: &mut Rng, step: usize) {
        let expected: Vec<(u64, Item)> = reference.iter().map(|(k, v)| (*k, v.clone())).collect();
        assert_eq!(map.as_slice(), &expected[..], "step {step}");
        assert!(map.iter().map(|(k, _)| k).eq(reference.keys().copied()));
        assert_eq!(map.len(), reference.len());
        assert!(map.spare() <= map.len() / 8 + 4, "step {step}: spare");
        for _ in 0..4 {
            let k = rng.key();
            assert_eq!(map.get(k), reference.get(&k), "step {step}: get {k}");
            assert_eq!(map.contains(k), reference.contains_key(&k));
            let (lo, hi) = (rng.key(), rng.key());
            let iv = KeyInterval::new(lo.min(hi), lo.max(hi)).unwrap();
            let want: Vec<(u64, Item)> = reference
                .range(iv.lo()..=iv.hi())
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            assert_eq!(map.interval(&iv), &want[..], "step {step}: {iv}");
            let range = rng.range();
            let want: Vec<(u64, Item)> = reference
                .iter()
                .filter(|(k, _)| range.contains(**k))
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            assert_eq!(pairs(map.runs(&range)), want, "step {step}: {range}");
            let low = rng.key();
            let ring = ring_order(reference, low);
            for n in [0, 1, map.len() / 2, map.len().saturating_sub(1), map.len()] {
                assert_eq!(map.nth_after(low, n), ring.get(n).copied(), "{low} {n}");
            }
        }
    }

    #[test]
    fn matches_an_ordered_map_reference_under_random_mutation() {
        for seed in 0..64 {
            let mut rng = Rng(seed);
            let mut map = ItemMap::new();
            let mut reference = BTreeMap::new();
            for step in 0..300 {
                let write = step as u64;
                match rng.below(10) {
                    0..=3 => {
                        let k = rng.key();
                        let it = item(k, write);
                        assert_eq!(map.insert(k, it.clone()), reference.insert(k, it));
                    }
                    4 | 5 => {
                        let k = rng.key();
                        assert_eq!(map.remove(k), reference.remove(&k));
                    }
                    6 => {
                        // Unsorted, with repeats inside the batch.
                        let n = rng.below(12);
                        let batch: Vec<(u64, Item)> = (0..n)
                            .map(|i| {
                                let k = rng.key();
                                (k, item(k, write * 100 + i))
                            })
                            .collect();
                        map.extend(batch.clone());
                        reference.extend(batch);
                    }
                    7 => {
                        let cut = rng.key();
                        map.retain(|k, _| k % 3 != cut % 3);
                        reference.retain(|k, _| k % 3 != cut % 3);
                    }
                    8 => {
                        let range = rng.range();
                        let want: Vec<u64> = reference
                            .keys()
                            .copied()
                            .filter(|k| range.contains(*k))
                            .collect();
                        let taken = map.take_runs(&range);
                        assert!(taken.iter().map(|(k, _)| *k).eq(want.iter().copied()));
                        for (k, v) in taken {
                            assert_eq!(reference.remove(&k), Some(v));
                        }
                    }
                    _ => {
                        let range = rng.range();
                        map.remove_runs(&range);
                        reference.retain(|k, _| !range.contains(*k));
                    }
                }
                check(&map, &reference, &mut rng, step);
            }
        }
    }

    #[test]
    fn extend_keeps_the_last_write_and_sorts() {
        let mut map = map_of([(5, item(5, 1)), (1, item(1, 1))]);
        map.extend([(9, item(9, 2)), (5, item(5, 2)), (9, item(9, 3))]);
        let got: Vec<(u64, &str)> = map.iter().map(|(k, v)| (k, &*v.payload)).collect();
        assert_eq!(got, [(1, "1"), (5, "2"), (9, "3")]);
        // An ascending batch above every key appends without a sort.
        map.extend([(10, item(10, 4)), (11, item(11, 4))]);
        assert_eq!(map.len(), 5);
        assert_eq!(map.get(11), Some(&item(11, 4)));
    }

    #[test]
    fn circular_runs_on_wrapping_full_and_empty_ranges() {
        let map = map_of([1, 5, 20, u64::MAX].map(|k| (k, item(k, 0))));
        let keys = |range| -> Vec<u64> {
            pairs(map.runs(&range))
                .into_iter()
                .map(|(k, _)| k)
                .collect()
        };
        assert_eq!(keys(CircularRange::new(4u64, 20u64)), [5, 20]);
        assert_eq!(keys(CircularRange::new(5u64, 1u64)), [1, 20, u64::MAX]);
        assert_eq!(keys(CircularRange::new(u64::MAX, 5u64)), [1, 5]);
        assert_eq!(keys(CircularRange::full(5u64)), [1, 5, 20, u64::MAX]);
        assert!(keys(CircularRange::empty(5u64)).is_empty());
        assert_eq!(map.nth_after(5, 0), Some(20));
        assert_eq!(map.nth_after(5, 2), Some(1));
        assert_eq!(map.nth_after(5, 4), None);
    }

    #[test]
    fn spare_capacity_stays_bounded_through_growth_and_shrinking() {
        let mut map = ItemMap::new();
        assert_eq!(map.spare(), 0);
        for k in 0..1000 {
            map.insert(k * 7 % 1000, item(k, 0));
            assert!(map.spare() <= map.len() / 8 + 4, "{} entries", map.len());
        }
        for k in 0..990 {
            map.remove(k);
            assert!(map.spare() <= map.len() / 8 + 4, "{} entries", map.len());
        }
        map.remove_runs(&CircularRange::full(0u64));
        assert!(map.is_empty() && map.spare() <= 4);
    }

    #[test]
    fn debug_reads_like_an_ordered_map() {
        let reference: BTreeMap<u64, Item> = [(3, item(3, 0)), (1, item(1, 0))].into();
        let map = map_of(reference.clone());
        assert_eq!(format!("{map:?}"), format!("{reference:?}"));
        assert_eq!(format!("{map:#?}"), format!("{reference:#?}"));
    }
}
