//! Search key values, peer values, and the map `M` between them.
//!
//! The paper assumes each item exposes a search key value `i.skv` from a
//! totally ordered domain `K`, and each peer is positioned on the ring by a
//! value from a domain `PV`. The Data Store owns a map `M : K -> PV`; a peer
//! `p` stores every item `i` with `M(i.skv) ∈ (pred(p).val, p.val]`.
//!
//! Range indices such as P-Ring need an **order-preserving** map so that range
//! queries can be answered by scanning along the ring. [`KeyMap`] is the
//! simplest one, the identity: the load-balance ablation compares key
//! distributions, not maps.

use std::fmt;

/// A search key value from the totally ordered domain `K`.
///
/// The paper assumes search key values are unique (duplicates are made unique
/// by appending the originating peer id and a version number); we model the
/// domain as `u64` and keep that uniqueness assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SearchKey(pub u64);

impl SearchKey {
    /// The smallest possible search key.
    pub const MIN: SearchKey = SearchKey(u64::MIN);
    /// The largest possible search key.
    pub const MAX: SearchKey = SearchKey(u64::MAX);

    /// Creates a new search key from a raw `u64`.
    #[inline]
    pub const fn new(v: u64) -> Self {
        SearchKey(v)
    }

    /// Returns the raw value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl From<u64> for SearchKey {
    fn from(v: u64) -> Self {
        SearchKey(v)
    }
}

impl fmt::Display for SearchKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// A peer value from the domain `PV`: the position of a peer on the ring.
///
/// Peer values increase clockwise around the ring and wrap around at the
/// highest value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PeerValue(pub u64);

impl PeerValue {
    /// The smallest possible peer value.
    pub const MIN: PeerValue = PeerValue(u64::MIN);
    /// The largest possible peer value.
    pub const MAX: PeerValue = PeerValue(u64::MAX);

    /// Creates a new peer value from a raw `u64`.
    #[inline]
    pub const fn new(v: u64) -> Self {
        PeerValue(v)
    }

    /// Returns the raw value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl From<u64> for PeerValue {
    fn from(v: u64) -> Self {
        PeerValue(v)
    }
}

impl fmt::Display for PeerValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The map `M : K -> PV` applied by the Data Store before placing an item:
/// the identity, which preserves the order of `K` so that range queries can
/// be evaluated by scanning along the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KeyMap;

impl KeyMap {
    /// Maps a search key value to a peer value.
    #[inline]
    pub fn map(&self, key: SearchKey) -> PeerValue {
        PeerValue(key.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_key_ordering_matches_raw() {
        assert!(SearchKey(1) < SearchKey(2));
        assert!(SearchKey::MIN < SearchKey::MAX);
        assert_eq!(SearchKey::from(7).raw(), 7);
    }

    #[test]
    fn order_preserving_map_is_identity() {
        let m = KeyMap;
        for k in [0u64, 1, 42, u64::MAX] {
            assert_eq!(m.map(SearchKey(k)), PeerValue(k));
        }
    }

    #[test]
    fn order_preserving_map_preserves_order() {
        let m = KeyMap;
        let keys = [0u64, 5, 10, 1000, u64::MAX / 2, u64::MAX];
        for w in keys.windows(2) {
            assert!(m.map(SearchKey(w[0])) < m.map(SearchKey(w[1])));
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(SearchKey(3).to_string(), "k3");
        assert_eq!(PeerValue(9).to_string(), "v9");
    }
}
