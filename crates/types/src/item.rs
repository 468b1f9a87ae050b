//! Data items stored in the index.

use std::fmt;
use std::sync::Arc;

use crate::key::SearchKey;
use crate::peer::PeerId;

/// A globally unique item identifier.
///
/// The paper makes search key values unique by appending the originating
/// peer's physical id and a version number; [`ItemId`] captures exactly that
/// `(origin, sequence)` pair so the oracle can track an item independently of
/// where it is currently stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId {
    /// The peer at which the item was originally inserted.
    pub origin: PeerId,
    /// A per-origin monotonically increasing sequence number.
    pub seq: u64,
}

impl ItemId {
    /// Creates a new item id.
    pub const fn new(origin: PeerId, seq: u64) -> Self {
        ItemId { origin, seq }
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

/// A `(value, item)` pair stored in the index.
///
/// The search key value `skv` is the value the index is built over; the
/// payload is opaque to the index (in the paper it is "a description of the
/// object", e.g. an enemy-vehicle record in the JBI scenario).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Item {
    /// Globally unique identity of the item.
    pub id: ItemId,
    /// The search key value the item is indexed by.
    pub skv: SearchKey,
    /// Application payload (opaque to the index). Immutable and shared:
    /// replicating, handing off or reporting an item copies a pointer, not
    /// the bytes.
    pub payload: Arc<str>,
}

impl Item {
    /// Creates a new item.
    pub fn new(id: ItemId, skv: SearchKey, payload: impl Into<Arc<str>>) -> Self {
        Item {
            id,
            skv,
            payload: payload.into(),
        }
    }

    /// Convenience constructor used heavily by tests: an item whose identity
    /// is derived from its key and whose payload is empty.
    pub fn for_key(skv: impl Into<SearchKey>) -> Self {
        let skv = skv.into();
        Item {
            id: ItemId::new(PeerId(0), skv.raw()),
            skv,
            payload: "".into(),
        }
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "item({}, {})", self.id, self.skv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_id_display() {
        let id = ItemId::new(PeerId(3), 7);
        assert_eq!(id.to_string(), "p3#7");
    }

    #[test]
    fn item_for_key_uses_key_as_sequence() {
        let it = Item::for_key(99u64);
        assert_eq!(it.skv, SearchKey(99));
        assert_eq!(it.id.seq, 99);
        assert!(it.payload.is_empty());
    }

    #[test]
    fn items_with_same_fields_are_equal() {
        let a = Item::new(ItemId::new(PeerId(1), 1), SearchKey(5), "x");
        let b = Item::new(ItemId::new(PeerId(1), 1), SearchKey(5), "x");
        assert_eq!(a, b);
    }
}
