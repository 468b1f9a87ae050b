//! Durable peer storage on real files: WAL + snapshot + crash recovery.
//!
//! The simulator runs every peer's storage engine on the deterministic
//! in-memory VFS; this example exercises the same engine on the real-file
//! VFS ([`pepper_storage::FileVfs`]) — the form an actual deployment would
//! use. It journals a small workload, "crashes" by dropping the engine
//! mid-stream (the un-synced replica tail simply never reaches the disk),
//! reopens the directory and recovers: the snapshot plus the WAL's valid
//! prefix rebuild the exact acknowledged state.
//!
//! Run with:
//!
//! ```text
//! cargo run -p pepper-sim --example durability
//! ```

use pepper_storage::{FileVfs, PeerStorage, RecoveryMode, Snapshot, StorageConfig};
use pepper_types::{CircularRange, Item, ItemId, PeerId, SearchKey};

fn item(k: u64) -> Item {
    Item::new(
        ItemId::new(PeerId(1), k),
        SearchKey(k),
        format!("value-{k}"),
    )
}

fn main() {
    let dir = std::env::temp_dir().join("pepper-durability-demo");
    let _ = std::fs::remove_dir_all(&dir);

    // ---- first incarnation: journal a workload ------------------------
    {
        let vfs = FileVfs::new(&dir).expect("create storage dir");
        let mut storage = PeerStorage::new(Box::new(vfs), StorageConfig::default());
        storage.write_snapshot(&Snapshot {
            live: true,
            range: CircularRange::new(0u64, 1_000_000u64),
            items: vec![(100, item(100)), (200, item(200))],
            replicas: vec![],
        });
        println!("snapshot written: items [100, 200]");

        // Acked operations: appended AND synced before the ack would leave.
        storage.log_item_insert(300, &item(300));
        storage.log_item_delete(100);
        println!("WAL: +300 (insert), -100 (delete) — synced");

        // Replica receipts are journaled lazily (no sync): soft state each
        // live owner pushes again once it sees the holder join the ring
        // again.
        storage.log_replica_puts(&[(7, item(7)), (8, item(8))]);
        println!("WAL: replicas 7, 8 appended (not synced)");
        // The process "crashes" here: storage is dropped without another
        // sync; on a real OS any suffix of the un-synced tail may be lost.
    }

    // ---- restart: recover from what the disk kept ---------------------
    let vfs = FileVfs::new(&dir).expect("reopen storage dir");
    let storage = PeerStorage::new(Box::new(vfs), StorageConfig::default());
    let recovered = storage.recover(RecoveryMode::Clean);
    let items: Vec<u64> = recovered.items.iter().map(|(m, _)| *m).collect();
    let replicas: Vec<u64> = recovered.replicas.iter().map(|(m, _)| *m).collect();
    println!(
        "recovered: live={} range={} items={items:?} replicas={replicas:?} \
         ({} WAL records replayed, torn tail: {})",
        recovered.live, recovered.range, recovered.wal_records_replayed, recovered.torn_tail,
    );
    assert_eq!(items, vec![200, 300], "snapshot + WAL replay");
    assert!(recovered.live);

    // The digest is what the harness folds into its final-state hash.
    println!("durable digest: {:016x}", storage.digest());
    let _ = std::fs::remove_dir_all(&dir);
    println!("ok");
}
