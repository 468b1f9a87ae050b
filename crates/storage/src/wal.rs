//! The write-ahead log: record types and the checksum-framed codec.
//!
//! Every record is framed as `len: u32 | crc: u64 | body`, where `crc` is
//! FNV-1a over the body. Recovery scans the log front to back and stops at
//! the first frame that is incomplete (a torn tail write cut it short) or
//! whose checksum does not match (the tail bytes are garbage) — everything
//! before that point is trusted, everything after is discarded. This is the
//! standard "prefix-valid" WAL contract: a crash can lose the un-synced
//! suffix but can never corrupt the replayed prefix.

use pepper_types::{Item, ItemId, PeerId, SearchKey};

/// One WAL record. Range changes are not logged here: the composed peer
/// writes a full [`snapshot`](crate::snapshot) on every range change
/// (transfers move many items at once, and a snapshot is the only encoding
/// that cannot diverge from the in-memory store).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// An item landed in this peer's Data Store (insert, hand-off install,
    /// revival).
    ItemInsert {
        /// The item's mapped placement value.
        mapped: u64,
        /// The item itself.
        item: Item,
    },
    /// The item with this mapped value left the Data Store.
    ItemDelete {
        /// The removed item's mapped placement value.
        mapped: u64,
    },
    /// A replica was received (or refreshed with different content) on
    /// behalf of a predecessor.
    ReplicaPut {
        /// The replica's mapped placement value.
        mapped: u64,
        /// The replicated item.
        item: Item,
    },
}

// ---------------------------------------------------------------------
// primitive encoding helpers (shared with the snapshot codec)
// ---------------------------------------------------------------------

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

pub(crate) fn put_item(out: &mut Vec<u8>, item: &Item) {
    put_u64(out, item.id.origin.raw());
    put_u64(out, item.id.seq);
    put_u64(out, item.skv.raw());
    put_bytes(out, item.payload.as_bytes());
}

/// A cursor over encoded bytes; every getter returns `None` on underrun, so
/// a torn record can never panic recovery.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    pub(crate) fn bytes_field(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    pub(crate) fn item(&mut self) -> Option<Item> {
        let origin = self.u64()?;
        let seq = self.u64()?;
        let skv = self.u64()?;
        let payload = String::from_utf8(self.bytes_field()?.to_vec()).ok()?;
        Some(Item::new(
            ItemId::new(PeerId(origin), seq),
            SearchKey(skv),
            payload,
        ))
    }
}

/// FNV-1a offset basis (the start value of a fresh fold).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a state (stable across platforms and
/// runs; shared by the frame checksums and the VFS digests).
pub(crate) fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over a byte string (stable across platforms and runs, unlike
/// `std::hash`'s randomized hasher).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

/// Frames an encoded body as `len | crc | body`.
pub(crate) fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 12);
    put_u32(&mut out, body.len() as u32);
    put_u64(&mut out, fnv1a(body));
    out.extend_from_slice(body);
    out
}

/// Reads one frame from the cursor: `Some(body)` if complete and checksummed,
/// `None` if the remaining bytes are a torn or corrupt tail.
pub(crate) fn read_frame<'a>(cur: &mut Cursor<'a>) -> Option<&'a [u8]> {
    let len = cur.u32()? as usize;
    let crc = cur.u64()?;
    let body = cur.take(len)?;
    (fnv1a(body) == crc).then_some(body)
}

const TAG_ITEM_INSERT: u8 = 1;
const TAG_ITEM_DELETE: u8 = 2;
const TAG_REPLICA_PUT: u8 = 3;

impl WalRecord {
    /// Encodes the record as one framed WAL entry.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        match self {
            WalRecord::ItemInsert { mapped, item } => {
                body.push(TAG_ITEM_INSERT);
                put_u64(&mut body, *mapped);
                put_item(&mut body, item);
            }
            WalRecord::ItemDelete { mapped } => {
                body.push(TAG_ITEM_DELETE);
                put_u64(&mut body, *mapped);
            }
            WalRecord::ReplicaPut { mapped, item } => {
                body.push(TAG_REPLICA_PUT);
                put_u64(&mut body, *mapped);
                put_item(&mut body, item);
            }
        }
        frame(&body)
    }

    /// Decodes one record body (the frame already stripped and verified).
    fn decode_body(body: &[u8]) -> Option<WalRecord> {
        let mut cur = Cursor::new(body);
        let rec = match cur.u8()? {
            TAG_ITEM_INSERT => WalRecord::ItemInsert {
                mapped: cur.u64()?,
                item: cur.item()?,
            },
            TAG_ITEM_DELETE => WalRecord::ItemDelete { mapped: cur.u64()? },
            TAG_REPLICA_PUT => WalRecord::ReplicaPut {
                mapped: cur.u64()?,
                item: cur.item()?,
            },
            _ => return None,
        };
        (cur.remaining() == 0).then_some(rec)
    }

    /// Decodes a WAL byte stream into the longest valid record prefix.
    /// Returns the records and whether a torn/corrupt tail was discarded.
    pub fn decode_stream(bytes: &[u8]) -> (Vec<WalRecord>, bool) {
        let mut cur = Cursor::new(bytes);
        let mut records = Vec::new();
        while cur.remaining() > 0 {
            let Some(body) = read_frame(&mut cur) else {
                return (records, true);
            };
            let Some(rec) = WalRecord::decode_body(body) else {
                return (records, true);
            };
            records.push(rec);
        }
        (records, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(k: u64, payload: &str) -> Item {
        Item::new(ItemId::new(PeerId(4), k), SearchKey(k), payload)
    }

    #[test]
    fn records_roundtrip() {
        let records = vec![
            WalRecord::ItemInsert {
                mapped: 10,
                item: item(10, "payload-10"),
            },
            WalRecord::ItemDelete { mapped: 10 },
            WalRecord::ReplicaPut {
                mapped: 99,
                item: item(99, ""),
            },
        ];
        let mut stream = Vec::new();
        for r in &records {
            stream.extend_from_slice(&r.encode());
        }
        let (back, torn) = WalRecord::decode_stream(&stream);
        assert!(!torn);
        assert_eq!(back, records);
    }

    #[test]
    fn torn_tail_keeps_the_valid_prefix() {
        let a = WalRecord::ItemInsert {
            mapped: 1,
            item: item(1, "first"),
        };
        let b = WalRecord::ItemInsert {
            mapped: 2,
            item: item(2, "second"),
        };
        let mut stream = a.encode();
        let tail = b.encode();
        // Cut the second record anywhere: the first must always survive.
        for cut in 0..tail.len() {
            let mut torn_stream = stream.clone();
            torn_stream.extend_from_slice(&tail[..cut]);
            let (records, torn) = WalRecord::decode_stream(&torn_stream);
            assert_eq!(records, vec![a.clone()], "cut at {cut}");
            assert_eq!(torn, cut != 0, "cut at {cut}");
        }
        stream.extend_from_slice(&tail);
        let (records, torn) = WalRecord::decode_stream(&stream);
        assert_eq!(records.len(), 2);
        assert!(!torn);
    }

    #[test]
    fn corrupt_bytes_stop_replay() {
        let a = WalRecord::ItemDelete { mapped: 5 };
        let mut stream = a.encode();
        let mut bad = WalRecord::ItemDelete { mapped: 6 }.encode();
        let last = bad.len() - 1;
        bad[last] ^= 0xff; // flip a body byte: crc mismatch
        stream.extend_from_slice(&bad);
        let (records, torn) = WalRecord::decode_stream(&stream);
        assert_eq!(records, vec![a]);
        assert!(torn);
    }

    #[test]
    fn empty_stream_is_clean() {
        let (records, torn) = WalRecord::decode_stream(&[]);
        assert!(records.is_empty());
        assert!(!torn);
    }
}
