//! Tests of [`VecMap`](crate::VecMap) as the item table of the Data Store
//! and the replica store: `u64` mapped values to [`Item`](crate::Item)s,
//! read and cut by key intervals, circular ranges and ring order. The
//! generic map operations are tested in `vec_map`.

mod tests {
    use std::collections::BTreeMap;

    use crate::range::{CircularRange, KeyInterval};
    use crate::{Item, ItemId, PeerId, SearchKey, VecMap};

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

        /// A key from a small domain (so writes collide), now and then one
        /// at either end of `u64`.
        fn key(&mut self, domain: u64) -> u64 {
            match self.below(16) {
                0 => 0,
                1 => u64::MAX - self.below(3),
                _ => self.below(domain),
            }
        }

        fn range(&mut self, domain: u64) -> CircularRange {
            let (low, high) = (self.key(domain), self.key(domain));
            match self.below(8) {
                0 => CircularRange::full(high),
                1 => CircularRange::empty(high),
                _ => CircularRange::new(low, high),
            }
        }
    }

    type Items = VecMap<u64, Item>;

    /// The spare capacity a map holds: room allocated but not used.
    fn spare(map: &Items) -> usize {
        map.capacity() - map.len()
    }

    /// The ring-order rule the stores used before: the keys above `low`
    /// ascending, then the keys up to `low` ascending.
    fn ring_order(reference: &BTreeMap<u64, Item>, low: u64) -> Vec<u64> {
        let upper = reference.keys().copied().filter(|k| *k > low);
        upper
            .chain(reference.keys().copied().filter(|k| *k <= low))
            .collect()
    }

    fn map_of(items: impl IntoIterator<Item = (u64, Item)>) -> Items {
        let mut map = VecMap::new();
        map.extend(items);
        map
    }

    fn pairs<'a>(runs: impl IntoIterator<Item = &'a [(u64, Item)]>) -> Vec<(u64, Item)> {
        runs.into_iter().flatten().cloned().collect()
    }

    fn check(map: &Items, reference: &BTreeMap<u64, Item>, rng: &mut Rng, domain: u64, at: &str) {
        let expected: Vec<(u64, Item)> = reference.iter().map(|(k, v)| (*k, v.clone())).collect();
        assert_eq!(map.as_slice(), &expected[..], "{at}");
        assert!(map.values().eq(reference.values()), "{at}");
        assert_eq!(map.len(), reference.len());
        assert_eq!(map.is_empty(), reference.is_empty());
        assert!(spare(map) <= map.len() / 8 + 4, "{at}: spare");
        if map.is_empty() {
            assert_eq!(map.capacity(), 0, "{at}: capacity");
        }
        for _ in 0..4 {
            let k = rng.key(domain);
            assert_eq!(map.get(&k), reference.get(&k), "{at}: get {k}");
            assert_eq!(map.contains_key(&k), reference.contains_key(&k));
            let (lo, hi) = (rng.key(domain), rng.key(domain));
            let iv = KeyInterval::new(lo.min(hi), lo.max(hi)).unwrap();
            let want: Vec<(u64, Item)> = reference
                .range(iv.lo()..=iv.hi())
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            assert_eq!(map.interval(&iv), &want[..], "{at}: {iv}");
            let range = rng.range(domain);
            let want: Vec<(u64, Item)> = reference
                .iter()
                .filter(|(k, _)| range.contains(**k))
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            assert_eq!(pairs(map.runs(&range)), want, "{at}: {range}");
            let low = rng.key(domain);
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
            let mut map = VecMap::new();
            let mut reference = BTreeMap::new();
            // Odd seeds draw from a tiny domain, where removals drain the
            // map to empty again and again.
            let domain = if seed % 2 == 0 { 96 } else { 1 + rng.below(8) };
            for step in 0..300 {
                let at = format!("seed {seed}, step {step}");
                let write = step as u64;
                match rng.below(11) {
                    0..=3 => {
                        let k = rng.key(domain);
                        let it = item(k, write);
                        assert_eq!(map.insert(k, it.clone()), reference.insert(k, it));
                    }
                    4 | 5 => {
                        let k = rng.key(domain);
                        assert_eq!(map.remove(&k), reference.remove(&k), "{at}");
                    }
                    6 => {
                        // Unsorted, with repeats inside the batch.
                        let n = rng.below(12);
                        let batch: Vec<(u64, Item)> = (0..n)
                            .map(|i| {
                                let k = rng.key(domain);
                                (k, item(k, write * 100 + i))
                            })
                            .collect();
                        map.extend(batch.clone());
                        reference.extend(batch);
                    }
                    7 => {
                        let cut = rng.key(domain);
                        map.retain(|k, _| k % 3 != cut % 3);
                        reference.retain(|k, _| k % 3 != cut % 3);
                    }
                    8 => {
                        let range = rng.range(domain);
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
                    9 => {
                        let k = rng.key(domain);
                        let got = map.get_mut(&k).map(|v| *v = item(k, write));
                        let want = reference.get_mut(&k).map(|v| *v = item(k, write));
                        assert_eq!(got, want, "{at}");
                    }
                    _ => {
                        let range = rng.range(domain);
                        map.remove_runs(&range);
                        reference.retain(|k, _| !range.contains(*k));
                    }
                }
                check(&map, &reference, &mut rng, domain, &at);
            }
        }
    }

    #[test]
    fn extend_keeps_the_last_write_and_sorts() {
        let mut map = map_of([(5, item(5, 1)), (1, item(1, 1))]);
        map.extend([(9, item(9, 2)), (5, item(5, 2)), (9, item(9, 3))]);
        let got: Vec<(u64, &str)> = map
            .as_slice()
            .iter()
            .map(|(k, v)| (*k, &*v.payload))
            .collect();
        assert_eq!(got, [(1, "1"), (5, "2"), (9, "3")]);
        // An ascending batch above every key appends without a sort.
        map.extend([(10, item(10, 4)), (11, item(11, 4))]);
        assert_eq!(map.len(), 5);
        assert_eq!(map.get(&11), Some(&item(11, 4)));
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
        let mut map = VecMap::new();
        assert_eq!(spare(&map), 0);
        for k in 0..1000 {
            map.insert(k * 7 % 1000, item(k, 0));
            assert!(spare(&map) <= map.len() / 8 + 4, "{} entries", map.len());
        }
        for k in 0..990 {
            map.remove(&k);
            assert!(spare(&map) <= map.len() / 8 + 4, "{} entries", map.len());
        }
        map.remove_runs(&CircularRange::full(0u64));
        assert!(map.is_empty());
        assert_eq!(map.capacity(), 0);
    }

    #[test]
    fn debug_reads_like_an_ordered_map() {
        let reference: BTreeMap<u64, Item> = [(3, item(3, 0)), (1, item(1, 0))].into();
        let map = map_of(reference.clone());
        assert_eq!(format!("{map:?}"), format!("{reference:?}"));
        assert_eq!(format!("{map:#?}"), format!("{reference:#?}"));
    }
}
