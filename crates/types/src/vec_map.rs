//! [`VecMap`]: a small ordered map in one sorted array that frees its
//! buffer when it empties.
//!
//! A peer's tables of in-flight requests — the routed requests it issued,
//! its unacknowledged hops, its open queries and held scan locks — hold a
//! handful of entries at a time and are empty most of the time. A hash map
//! keeps its table after its last entry leaves, and iterates in an order
//! that changes from process to process. A `Vec` sorted by key answers
//! each lookup with a binary search, iterates in ascending key order, and
//! is given back to the allocator as soon as it holds nothing.

use std::fmt;

/// `(key, value)` pairs sorted by key, one pair per key.
///
/// Iteration is ascending by key, and `Debug` prints the pairs as a map,
/// `{key: value, …}`, like an ordered map would. An empty map owns no
/// buffer: removing the last entry releases it.
#[derive(Clone)]
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

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.search(key).ok().map(|i| &self.entries[i].1)
    }

    /// The value stored under `key`, mutably, if any.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.search(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// Returns `true` iff a value is stored under `key`.
    pub fn contains_key(&self, key: &K) -> bool {
        self.search(key).is_ok()
    }

    /// Stores `value` under `key` and returns the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes and returns the value stored under `key`. Removing the last
    /// entry frees the buffer.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.search(key).ok()?;
        let (_, value) = self.entries.remove(i);
        if self.entries.is_empty() {
            self.entries = Vec::new();
        }
        Some(value)
    }

    /// All values, in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.entries.iter().map(|(_, value)| value)
    }

    /// Index of `key`, or where it would be inserted.
    fn search(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
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
