//! Snapshot codec: the full durable image of one peer, written atomically.
//!
//! A snapshot captures everything recovery needs to rebuild a peer's stored
//! state without the WAL: whether the peer was live, its owned range, its
//! items and its replica holdings. It is encoded as a single checksum-framed
//! blob and written through [`Vfs::write_atomic`](crate::Vfs::write_atomic),
//! so a crash sees either the old snapshot or the new one, never a mix.

use pepper_types::{CircularRange, Item};

use crate::wal::{frame, put_item, put_u32, put_u64, read_frame, Cursor};

/// The durable image of one peer at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Whether the peer stored data (was a live ring member) at snapshot
    /// time. A free peer snapshots an empty image.
    pub live: bool,
    /// The owned range (meaningless when `live` is false).
    pub range: CircularRange,
    /// The stored items, keyed by mapped placement value.
    pub items: Vec<(u64, Item)>,
    /// The replica holdings, keyed by mapped placement value.
    pub replicas: Vec<(u64, Item)>,
}

impl Default for Snapshot {
    /// The blank image of a peer that never stored anything (a free peer).
    fn default() -> Self {
        Snapshot {
            live: false,
            range: CircularRange::empty(0u64),
            items: Vec::new(),
            replicas: Vec::new(),
        }
    }
}

impl Snapshot {
    /// Encodes the snapshot as one framed blob.
    pub fn encode(&self) -> Vec<u8> {
        Self::encode_parts(self.live, self.range, &self.items, &self.replicas)
    }

    /// Encodes the snapshot these parts make up, byte for byte what
    /// [`Self::encode`] writes for them, without building a [`Snapshot`].
    pub fn encode_parts(
        live: bool,
        range: CircularRange,
        items: &[(u64, Item)],
        replicas: &[(u64, Item)],
    ) -> Vec<u8> {
        let mut body = Vec::new();
        body.push(u8::from(live));
        put_u64(&mut body, range.low().raw());
        put_u64(&mut body, range.high().raw());
        body.push(u8::from(range.is_full()));
        for pairs in [items, replicas] {
            put_u32(&mut body, pairs.len() as u32);
            for (mapped, item) in pairs {
                put_u64(&mut body, *mapped);
                put_item(&mut body, item);
            }
        }
        frame(&body)
    }

    /// Decodes a snapshot blob. `None` for an empty, torn or corrupt blob
    /// (recovery then starts from a blank image).
    pub fn decode(bytes: &[u8]) -> Option<Snapshot> {
        let mut cur = Cursor::new(bytes);
        let body = read_frame(&mut cur)?;
        let mut cur = Cursor::new(body);
        let live = cur.u8()? != 0;
        let low = cur.u64()?;
        let high = cur.u64()?;
        let full = cur.u8()? != 0;
        let range = if full {
            debug_assert_eq!(low, high);
            CircularRange::full(high)
        } else {
            CircularRange::new(low, high)
        };
        let n_items = cur.u32()? as usize;
        let mut items = Vec::with_capacity(n_items);
        for _ in 0..n_items {
            items.push((cur.u64()?, cur.item()?));
        }
        let n_replicas = cur.u32()? as usize;
        let mut replicas = Vec::with_capacity(n_replicas);
        for _ in 0..n_replicas {
            replicas.push((cur.u64()?, cur.item()?));
        }
        (cur.remaining() == 0).then_some(Snapshot {
            live,
            range,
            items,
            replicas,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepper_types::{ItemId, PeerId, SearchKey};

    fn item(k: u64) -> Item {
        Item::new(ItemId::new(PeerId(2), k), SearchKey(k), format!("v{k}"))
    }

    #[test]
    fn snapshot_roundtrips() {
        let snap = Snapshot {
            live: true,
            range: CircularRange::new(100u64, 900u64),
            items: vec![(150, item(150)), (800, item(800))],
            replicas: vec![(50, item(50))],
        };
        let bytes = snap.encode();
        assert_eq!(Snapshot::decode(&bytes), Some(snap));
    }

    #[test]
    fn full_and_empty_ranges_roundtrip() {
        for range in [
            CircularRange::full(7u64),
            CircularRange::empty(7u64),
            CircularRange::new(900u64, 100u64), // wrapping
        ] {
            let snap = Snapshot {
                live: true,
                range,
                items: vec![],
                replicas: vec![],
            };
            assert_eq!(Snapshot::decode(&snap.encode()), Some(snap));
        }
    }

    #[test]
    fn torn_snapshot_is_rejected() {
        let snap = Snapshot {
            live: true,
            range: CircularRange::new(0u64, 10u64),
            items: vec![(5, item(5))],
            replicas: vec![],
        };
        let bytes = snap.encode();
        for cut in 0..bytes.len() {
            assert_eq!(Snapshot::decode(&bytes[..cut]), None, "cut at {cut}");
        }
        assert!(Snapshot::decode(&[]).is_none());
    }
}
