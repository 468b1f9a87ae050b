//! [`VecMap`]: a small ordered map in one flat sorted array.
//!
//! Every keyed table a peer holds is small: its Data Store items and the
//! replicas it keeps for its predecessors (a few to a few hundred pairs
//! keyed by mapped value), its tables of in-flight requests (a handful of
//! entries, empty most of the time) and its storage engine's files (two).
//! A `Vec` of pairs sorted by key answers each lookup with a binary search,
//! iterates in ascending key order as an ordered map does, and spends no
//! node headers or half-empty nodes on small tables. Every range operation
//! on the item tables — a scan step's interval, a hand-off's circular
//! range, a split point in ring order — is a contiguous run of the sorted
//! pairs: a binary search and a slice.
//!
//! Spare capacity is bounded, at most `len / 8 + 4` pairs, so that many
//! small maps stay small, and an empty map owns no buffer.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Range;

use crate::range::{CircularRange, KeyInterval};

/// The most spare entries a map of `len` entries keeps: an eighth of its
/// length plus four. Growth and shrinking both aim at half of it, so an
/// insert after a shrink (or a removal after a growth) reallocates nothing.
const fn max_spare(len: usize) -> usize {
    len / 8 + 4
}

/// `(key, value)` pairs sorted by key, one pair per key.
///
/// Iteration is ascending by key everywhere, and `Debug` prints the pairs
/// as a map, `{key: value, …}`, like an ordered map would. An empty map
/// owns no buffer: removing the last entry releases it.
#[derive(Clone, PartialEq, Eq)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord, V> VecMap<K, V> {
    /// Creates an empty map (no allocation).
    pub const fn new() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }

    /// Number of entries stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All pairs, in ascending key order.
    pub fn as_slice(&self) -> &[(K, V)] {
        &self.entries
    }

    /// The value stored under `key`, if any.
    pub fn get<Q: Ord + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.search(key).ok().map(|i| &self.entries[i].1)
    }

    /// The value stored under `key`, mutably, if any.
    pub fn get_mut<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
    {
        self.search(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// Returns `true` iff a value is stored under `key`.
    pub fn contains_key<Q: Ord + ?Sized>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.search(key).is_ok()
    }

    /// Stores `value` under `key` and returns the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.reserve(1);
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// The value stored under `key`, mutably; when there is none, first
    /// stores `make()` under an owned copy of `key`, which is built only then.
    pub fn get_or_insert_with<Q>(&mut self, key: &Q, make: impl FnOnce() -> V) -> &mut V
    where
        K: Borrow<Q>,
        Q: Ord + ToOwned<Owned = K> + ?Sized,
    {
        let i = match self.search(key) {
            Ok(i) => i,
            Err(i) => {
                self.reserve(1);
                self.entries.insert(i, (key.to_owned(), make()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Removes and returns the value stored under `key`.
    pub fn remove<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        let i = self.search(key).ok()?;
        let (_, value) = self.entries.remove(i);
        self.trim();
        Some(value)
    }

    /// Stores every pair of `pairs`, in any order. Where a key repeats, in
    /// `pairs` or against the map, the last write wins.
    pub fn extend(&mut self, pairs: impl IntoIterator<Item = (K, V)>) {
        let pairs = pairs.into_iter();
        self.reserve(pairs.size_hint().0);
        let old = self.entries.len();
        self.entries.extend(pairs);
        // The old pairs are sorted and unique, so only an appended run that
        // does not climb strictly above them needs sorting. The sort is
        // stable: equal keys stay in write order, and the dedup swaps each
        // later write into the slot it keeps.
        let appended = &self.entries[old.saturating_sub(1)..];
        if appended.windows(2).any(|w| w[0].0 >= w[1].0) {
            self.entries.sort_by(|a, b| a.0.cmp(&b.0));
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
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        self.entries.retain(|(key, value)| keep(key, value));
        self.trim();
    }

    /// All values, in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.entries.iter().map(|(_, value)| value)
    }

    /// All values, mutably, in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.entries.iter_mut().map(|(_, value)| value)
    }

    /// Index of `key`, or where it would be inserted.
    /// The pairs the buffer has room for, used or not.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    fn search<Q: Ord + ?Sized>(&self, key: &Q) -> Result<usize, usize>
    where
        K: Borrow<Q>,
    {
        self.entries.binary_search_by(|(k, _)| k.borrow().cmp(key))
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

    /// Gives back spare capacity beyond the bound, down to half of it, and
    /// the whole buffer once the map is empty.
    fn trim(&mut self) {
        let len = self.entries.len();
        if len == 0 {
            self.entries = Vec::new();
        } else if self.entries.capacity() - len > max_spare(len) {
            self.entries.shrink_to(len + max_spare(len) / 2);
        }
    }
}

/// Range operations on maps keyed by mapped value (the item tables).
impl<V> VecMap<u64, V> {
    /// The pairs whose key lies in the closed interval.
    pub fn interval(&self, iv: &KeyInterval) -> &[(u64, V)] {
        let start = self.rank_below(iv.lo());
        let end = self.rank(iv.hi());
        &self.entries[start..end]
    }

    /// The pairs whose key lies in `range`, as at most two runs in
    /// ascending key order: a wrapping range `(low, high]` is the run
    /// `[0, high]` followed by the run `(low, MAX]`.
    pub fn runs(&self, range: &CircularRange) -> [&[(u64, V)]; 2] {
        let [a, b] = self.run_bounds(range);
        [&self.entries[a], &self.entries[b]]
    }

    /// Removes and returns the pairs whose key lies in `range`, in
    /// ascending key order.
    pub fn take_runs(&mut self, range: &CircularRange) -> Vec<(u64, V)> {
        let [a, b] = self.run_bounds(range);
        let mut taken = Vec::with_capacity(a.len() + b.len());
        let shift = a.len();
        taken.extend(self.entries.drain(a));
        taken.extend(self.entries.drain(b.start - shift..b.end - shift));
        self.trim();
        taken
    }

    /// Removes the pairs whose key lies in `range`.
    pub fn remove_runs(&mut self, range: &CircularRange) {
        let [a, b] = self.run_bounds(range);
        // The later run first, so the earlier one's indices stay valid.
        self.entries.drain(b);
        self.entries.drain(a);
        self.trim();
    }

    /// The `n`-th stored key (counting from zero) in *ring order* after
    /// `low`: the keys above `low` ascending, then, wrapping around the top
    /// of the domain, the keys up to `low` ascending. `None` when fewer
    /// than `n + 1` pairs are stored.
    pub fn nth_after(&self, low: u64, n: usize) -> Option<u64> {
        let len = self.entries.len();
        (n < len).then(|| self.entries[(self.rank(low) + n) % len].0)
    }

    /// Number of pairs whose key is at most `v`.
    fn rank(&self, v: u64) -> usize {
        self.entries.partition_point(|(k, _)| *k <= v)
    }

    /// Number of pairs whose key is below `v`.
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
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for VecMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(key, value)| (key, value)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

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
    }

    #[test]
    fn matches_an_ordered_map_reference_under_random_mutation() {
        for seed in 0..64 {
            let mut rng = Rng(seed);
            let mut map: VecMap<(u64, u32), u64> = VecMap::new();
            let mut reference = BTreeMap::new();
            // A small key domain, so writes collide, and a removal bias that
            // drains the map to empty again and again.
            let domain = 1 + rng.below(24);
            for step in 0..400u64 {
                let key = (rng.below(domain), rng.below(2) as u32);
                match rng.below(10) {
                    0..=3 => assert_eq!(map.insert(key, step), reference.insert(key, step)),
                    4..=7 => assert_eq!(map.remove(&key), reference.remove(&key)),
                    8 => {
                        let got = map.get_mut(&key).map(|v| {
                            *v += 1_000;
                            *v
                        });
                        let want = reference.get_mut(&key).map(|v| {
                            *v += 1_000;
                            *v
                        });
                        assert_eq!(got, want, "seed {seed}, step {step}");
                    }
                    _ => {
                        assert_eq!(map.contains_key(&key), reference.contains_key(&key));
                        assert_eq!(map.get(&key), reference.get(&key));
                    }
                }
                assert!(
                    map.values().eq(reference.values()),
                    "seed {seed}, step {step}"
                );
                assert_eq!(map.len(), reference.len());
                assert_eq!(map.is_empty(), reference.is_empty());
                if map.is_empty() {
                    assert_eq!(map.entries.capacity(), 0, "seed {seed}, step {step}");
                }
            }
        }
    }

    #[test]
    fn keys_of_any_ordered_type_are_looked_up_by_their_borrowed_form() {
        let mut map: VecMap<String, Vec<u8>> = VecMap::new();
        map.get_or_insert_with("wal", Vec::new).push(1);
        map.get_or_insert_with("snapshot", Vec::new).push(2);
        // A name already present is not built again, and keeps its value.
        map.get_or_insert_with("wal", || unreachable!()).push(3);
        map.get_mut("snapshot").unwrap().push(4);
        assert_eq!(format!("{map:?}"), r#"{"snapshot": [2, 4], "wal": [1, 3]}"#);
        assert!(map.contains_key("wal") && !map.contains_key("absent"));
        assert_eq!(map.remove("wal"), Some(vec![1, 3]));
        assert_eq!(map.get("snapshot"), Some(&vec![2, 4]));
    }

    #[test]
    fn removing_the_last_entry_frees_the_buffer() {
        let mut map = VecMap::new();
        assert_eq!(map.entries.capacity(), 0);
        for k in 0..10u32 {
            map.insert(k, k);
        }
        for k in 0..9 {
            map.remove(&k);
            assert!(map.entries.capacity() > 0);
        }
        assert_eq!(map.remove(&42), None);
        assert_eq!(map.remove(&9), Some(9));
        assert_eq!(map.entries.capacity(), 0);
    }

    #[test]
    fn debug_reads_like_an_ordered_map() {
        let reference: BTreeMap<u32, &str> = [(3, "c"), (1, "a")].into();
        let mut map = VecMap::new();
        for (k, v) in [(3, "c"), (1, "a")] {
            map.insert(k, v);
        }
        assert_eq!(format!("{map:?}"), format!("{reference:?}"));
        assert_eq!(format!("{map:#?}"), format!("{reference:#?}"));
    }
}
