//! [`PeerStorage`]: the durable-storage engine one peer owns.
//!
//! Two files live behind the VFS: `snapshot` (the last full image, replaced
//! atomically) and `wal` (records appended since that image). The write
//! discipline mirrors what the acknowledgement protocol promises:
//!
//! * item inserts/deletes are appended **and synced** before the composed
//!   peer's acknowledgement effect leaves the simulator handler — an acked
//!   op is durable by construction;
//! * replica receipts are appended **lazily** (no sync): replicas are soft
//!   state that live owners re-push every refresh period, so losing the
//!   un-synced tail in a crash costs nothing the protocol has promised —
//!   and it is exactly what gives the fault injector real torn tails to cut;
//! * every range change writes a fresh snapshot and truncates the WAL, and
//!   so does the composed peer's periodic snapshot tick once
//!   [`PeerStorage::snapshot_due`].

use std::collections::BTreeMap;

use pepper_types::{CircularRange, Item};

use crate::snapshot::Snapshot;
use crate::vfs::{MemVfs, Vfs};
use crate::wal::WalRecord;

/// The WAL file name behind the VFS.
pub const WAL_FILE: &str = "wal";
/// The snapshot file name behind the VFS.
pub const SNAPSHOT_FILE: &str = "snapshot";

/// Tunables of one peer's storage engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageConfig {
    /// Rewrite the snapshot (and truncate the WAL) once this many records
    /// have accumulated since the last image, checked at the periodic
    /// snapshot tick.
    pub snapshot_after_records: usize,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            snapshot_after_records: 64,
        }
    }
}

/// How a restarted peer treats its recovered durable state. The broken
/// variants exist so the harness can prove its oracles catch bad recoveries
/// (pinned red tests); production behavior is [`RecoveryMode::Clean`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Replay snapshot + full WAL, then reconcile against the live ring:
    /// donate recovered items to their current owners and rejoin as a free
    /// peer.
    #[default]
    Clean,
    /// DELIBERATELY BROKEN: recovery ignores the WAL and restores the last
    /// snapshot only — every item acked after that snapshot is silently
    /// dropped from durable state. The item-conservation oracle catches
    /// this when the restarted peer was the item's last holder.
    SkipWalTail,
    /// DELIBERATELY BROKEN: the restarted peer installs its recovered range
    /// and items as live-and-owned immediately, without any rejoin
    /// handshake. The recovered-range and range-partition oracles catch
    /// this.
    ServeStaleRange,
}

/// The durable image handed back by recovery (plus replay statistics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredState {
    /// Whether the peer was a live ring member when it crashed.
    pub live: bool,
    /// The range it owned then (stale by definition).
    pub range: CircularRange,
    /// The recovered item store.
    pub items: Vec<(u64, Item)>,
    /// The recovered replica holdings.
    pub replicas: Vec<(u64, Item)>,
    /// WAL records replayed on top of the snapshot.
    pub wal_records_replayed: u64,
    /// Whether a torn/corrupt WAL tail was detected and discarded.
    pub torn_tail: bool,
}

/// The durable image a snapshot captures, as collected by the composed peer.
pub type DurableImage = Snapshot;

/// One peer's durable storage engine: WAL + snapshot over a [`Vfs`].
#[derive(Debug)]
pub struct PeerStorage {
    vfs: Box<dyn Vfs + Send>,
    cfg: StorageConfig,
    /// Records appended since the last snapshot.
    wal_records: usize,
}

impl PeerStorage {
    /// Creates a storage engine over an arbitrary VFS.
    pub fn new(vfs: Box<dyn Vfs + Send>, cfg: StorageConfig) -> Self {
        PeerStorage {
            vfs,
            cfg,
            wal_records: 0,
        }
    }

    /// Creates a deterministic in-memory storage engine (the simulator
    /// form). `seed` drives the crash-fault injection; derive it from the
    /// simulation seed and the owning peer's id.
    pub fn new_mem(seed: u64, cfg: StorageConfig) -> Self {
        Self::new(Box::new(MemVfs::new(seed)), cfg)
    }

    /// The storage configuration.
    pub fn config(&self) -> &StorageConfig {
        &self.cfg
    }

    /// Whether the periodic tick should rewrite the snapshot.
    pub fn snapshot_due(&self) -> bool {
        self.wal_records >= self.cfg.snapshot_after_records
    }

    /// Journals an item landing in the Data Store. Synced: the insert ack
    /// must imply durability.
    pub fn log_item_insert(&mut self, mapped: u64, item: &Item) {
        let rec = WalRecord::ItemInsert {
            mapped,
            item: item.clone(),
        };
        self.vfs.append(WAL_FILE, &rec.encode());
        self.vfs.sync(WAL_FILE);
        self.wal_records += 1;
    }

    /// Journals an item leaving the Data Store. Synced: the delete ack must
    /// imply durability.
    pub fn log_item_delete(&mut self, mapped: u64) {
        let rec = WalRecord::ItemDelete { mapped };
        self.vfs.append(WAL_FILE, &rec.encode());
        self.vfs.sync(WAL_FILE);
        self.wal_records += 1;
    }

    /// Journals received replicas. Appended lazily (NOT synced): replicas
    /// are refreshed by live owners anyway, and the un-synced tail is what
    /// the crash injector tears.
    pub fn log_replica_puts(&mut self, items: &[(u64, Item)]) {
        for (mapped, item) in items {
            let rec = WalRecord::ReplicaPut {
                mapped: *mapped,
                item: item.clone(),
            };
            self.vfs.append(WAL_FILE, &rec.encode());
            self.wal_records += 1;
        }
    }

    /// Atomically replaces the snapshot with `image` and truncates the WAL.
    pub fn write_snapshot(&mut self, image: &DurableImage) {
        self.vfs.write_atomic(SNAPSHOT_FILE, &image.encode());
        self.vfs.truncate(WAL_FILE);
        self.wal_records = 0;
    }

    /// Applies the crash faults of the underlying [`MemVfs`] (no-op for
    /// other VFS implementations): un-synced tails are torn down to a
    /// seeded-random prefix. Called by the simulator when the owning peer
    /// fail-stops.
    pub fn crash(&mut self) {
        if let Some(mem) = self.vfs.as_mem_mut() {
            mem.crash();
        }
    }

    /// A deterministic digest of the durable state (folded into the
    /// harness's final-state hash).
    pub fn digest(&self) -> u64 {
        self.vfs.digest()
    }

    /// Recovers the durable image: decode the snapshot (blank if absent or
    /// torn), then replay the WAL's valid prefix on top. With
    /// [`RecoveryMode::SkipWalTail`] the WAL is ignored entirely — the
    /// deliberately broken variant pinned red tests rely on.
    pub fn recover(&self, mode: RecoveryMode) -> RecoveredState {
        let snap = self
            .vfs
            .read(SNAPSHOT_FILE)
            .and_then(|b| Snapshot::decode(&b))
            .unwrap_or_default();
        let mut state = RecoveredState {
            live: snap.live,
            range: snap.range,
            items: snap.items,
            replicas: snap.replicas,
            wal_records_replayed: 0,
            torn_tail: false,
        };
        if mode == RecoveryMode::SkipWalTail {
            return state;
        }
        let wal = self.vfs.read(WAL_FILE).unwrap_or_default();
        let (records, torn) = WalRecord::decode_stream(&wal);
        state.torn_tail = torn;
        // Replay into maps keyed by mapped value: O(n log n) regardless of
        // WAL length (a linear-scan upsert per record would make long-WAL
        // restarts quadratic — the recovery-time metric the macro bench
        // tracks), and map iteration hands back the sorted association
        // lists directly.
        let mut items: BTreeMap<u64, Item> = state.items.drain(..).collect();
        let mut replicas: BTreeMap<u64, Item> = state.replicas.drain(..).collect();
        for rec in records {
            state.wal_records_replayed += 1;
            match rec {
                WalRecord::ItemInsert { mapped, item } => {
                    items.insert(mapped, item);
                }
                WalRecord::ItemDelete { mapped } => {
                    items.remove(&mapped);
                }
                WalRecord::ReplicaPut { mapped, item } => {
                    replicas.insert(mapped, item);
                }
            }
        }
        state.items = items.into_iter().collect();
        state.replicas = replicas.into_iter().collect();
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepper_types::{ItemId, PeerId, SearchKey};

    fn item(k: u64) -> Item {
        Item::new(ItemId::new(PeerId(1), k), SearchKey(k), format!("p{k}"))
    }

    fn image(keys: &[u64]) -> DurableImage {
        Snapshot {
            live: true,
            range: CircularRange::new(0u64, 1000u64),
            items: keys.iter().map(|k| (*k, item(*k))).collect(),
            replicas: vec![],
        }
    }

    fn mem_storage(seed: u64) -> PeerStorage {
        PeerStorage::new_mem(seed, StorageConfig::default())
    }

    #[test]
    fn recovery_replays_snapshot_plus_wal() {
        let mut st = mem_storage(1);
        st.write_snapshot(&image(&[10, 20]));
        st.log_item_insert(30, &item(30));
        st.log_item_delete(10);
        st.log_replica_puts(&[(5, item(5))]);
        let rec = st.recover(RecoveryMode::Clean);
        assert!(rec.live);
        assert_eq!(
            rec.items.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
            vec![20, 30]
        );
        assert_eq!(
            rec.replicas.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
            vec![5]
        );
        assert_eq!(rec.wal_records_replayed, 3);
        assert!(!rec.torn_tail);
    }

    #[test]
    fn skip_wal_tail_loses_post_snapshot_records() {
        let mut st = mem_storage(2);
        st.write_snapshot(&image(&[10]));
        st.log_item_insert(30, &item(30));
        let broken = st.recover(RecoveryMode::SkipWalTail);
        assert_eq!(
            broken.items.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
            vec![10]
        );
        assert_eq!(broken.wal_records_replayed, 0);
        let clean = st.recover(RecoveryMode::Clean);
        assert_eq!(
            clean.items.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
            vec![10, 30]
        );
    }

    #[test]
    fn synced_records_survive_a_crash_unsynced_replicas_may_not() {
        let mut st = mem_storage(3);
        st.write_snapshot(&image(&[]));
        st.log_item_insert(7, &item(7)); // synced
        st.log_replica_puts(&[(1, item(1)), (2, item(2)), (3, item(3))]); // lazy
        st.crash();
        let rec = st.recover(RecoveryMode::Clean);
        assert_eq!(
            rec.items.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
            vec![7],
            "the acked insert is durable no matter where the tail tore"
        );
        assert!(rec.replicas.len() <= 3);
    }

    #[test]
    fn crash_recovery_is_deterministic_per_seed() {
        let run = |seed| {
            let mut st = mem_storage(seed);
            st.write_snapshot(&image(&[1]));
            st.log_item_insert(2, &item(2));
            st.log_replica_puts(&(10..30).map(|k| (k, item(k))).collect::<Vec<_>>());
            st.crash();
            st.recover(RecoveryMode::Clean)
        };
        assert_eq!(run(11), run(11));
        assert_eq!(run(12), run(12));
    }

    #[test]
    fn snapshot_due_counts_records() {
        let mut st = PeerStorage::new_mem(
            1,
            StorageConfig {
                snapshot_after_records: 2,
            },
        );
        assert!(!st.snapshot_due());
        st.log_item_insert(1, &item(1));
        assert!(!st.snapshot_due());
        st.log_item_delete(1);
        assert!(st.snapshot_due());
        st.write_snapshot(&image(&[]));
        assert!(!st.snapshot_due());
    }

    #[test]
    fn blank_storage_recovers_blank() {
        let st = mem_storage(4);
        let rec = st.recover(RecoveryMode::Clean);
        assert!(!rec.live);
        assert!(rec.items.is_empty() && rec.replicas.is_empty());
    }

    #[test]
    fn wal_upserts_deduplicate_by_mapped_value() {
        let mut st = mem_storage(5);
        st.log_item_insert(9, &item(9));
        let newer = Item::new(ItemId::new(PeerId(8), 9), SearchKey(9), "newer");
        st.log_item_insert(9, &newer);
        let rec = st.recover(RecoveryMode::Clean);
        assert_eq!(rec.items.len(), 1);
        assert_eq!(&*rec.items[0].1.payload, "newer");
    }

    /// Builds a never-snapshotted WAL of `n` insert/delete records churning
    /// a fixed set of keys — the pathological shape for any replay that
    /// scans the recovered image per record.
    fn pathological_log(seed: u64, n: u64) -> PeerStorage {
        let mut st = PeerStorage::new_mem(
            seed,
            StorageConfig {
                snapshot_after_records: usize::MAX,
            },
        );
        for i in 0..n {
            // Half the records churn the same 64 hot keys, half are fresh:
            // both the repeated-upsert and the growing-image cases stress
            // the replay's per-record lookup.
            let mapped = if i % 2 == 0 { i % 64 } else { 1000 + i };
            st.log_item_insert(mapped, &item(mapped));
            if i % 4 == 0 {
                st.log_item_delete(mapped);
            }
        }
        st
    }

    #[test]
    fn long_wal_replay_scales_linearly() {
        // Regression guard for the O(n²) replay shape (a linear scan of the
        // recovered Vec per WAL record): replaying an 8× longer log must
        // cost roughly 8× — far below the ~64× a quadratic replay costs.
        // The bound is deliberately loose (3× headroom over linear) so
        // timing noise can't trip it, while a quadratic regression
        // overshoots it by an order of magnitude.
        let small_n = 8_000u64;
        let big_n = 64_000u64;
        let small = pathological_log(3, small_n);
        let big = pathological_log(4, big_n);
        // Warm-up + correctness: both images must decode fully.
        assert!(small.recover(RecoveryMode::Clean).wal_records_replayed > 0);
        let t0 = std::time::Instant::now();
        let rec_small = small.recover(RecoveryMode::Clean);
        let small_wall = t0.elapsed();
        let t1 = std::time::Instant::now();
        let rec_big = big.recover(RecoveryMode::Clean);
        let big_wall = t1.elapsed();
        assert_eq!(rec_small.wal_records_replayed, small_n + small_n / 4);
        assert_eq!(rec_big.wal_records_replayed, big_n + big_n / 4);
        assert!(!rec_big.torn_tail);
        let ratio = big_wall.as_secs_f64() / small_wall.as_secs_f64().max(1e-9);
        assert!(
            ratio < 24.0,
            "8x WAL length cost {ratio:.1}x replay time ({small_wall:?} -> {big_wall:?}); \
             replay is no longer ~linear in log length"
        );
    }
}
