//! The virtual file system the WAL and snapshots are written through.
//!
//! Two implementations:
//!
//! * [`MemVfs`] — deterministic, in-memory, with seeded crash-fault
//!   injection. This is what every simulated peer runs on: `append` lands in
//!   an *un-synced tail* that only [`Vfs::sync`] makes durable, and
//!   [`MemVfs::crash`] models a power cut — the un-synced tail of every file
//!   is cut down to a seeded-random prefix (a **torn tail write**: the OS may
//!   have flushed any prefix of the buffered bytes, including none).
//! * [`FileVfs`] — a thin real-file implementation for examples; `sync` maps
//!   to `File::sync_all`, atomic writes go through a temp-file rename.

use std::io::Write as _;
use std::path::PathBuf;

use pepper_types::VecMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::wal::{fnv1a_fold as fnv1a, FNV_OFFSET};

/// A minimal byte-store abstraction: named files supporting appends with
/// explicit durability, atomic whole-file replacement, and reads.
///
/// Implementations must be deterministic given the same call sequence (and,
/// for fault injection, the same seed) — the harness replays recorded
/// schedules byte for byte, durable state included.
pub trait Vfs: std::fmt::Debug {
    /// Appends `data` to `file` (created if absent). The bytes are *not*
    /// durable until [`Vfs::sync`] is called for the file.
    fn append(&mut self, file: &str, data: &[u8]);

    /// Makes every byte appended to `file` so far durable.
    fn sync(&mut self, file: &str);

    /// Atomically replaces `file` with `data`, durably (the old content and
    /// any un-synced tail are gone; the new content survives a crash).
    fn write_atomic(&mut self, file: &str, data: &[u8]);

    /// Truncates `file` to zero length, durably.
    fn truncate(&mut self, file: &str);

    /// The current content of `file` as the running process sees it
    /// (durable bytes plus any un-synced tail), or `None` if it was never
    /// written.
    fn read(&self, file: &str) -> Option<Vec<u8>>;

    /// A deterministic digest of the *durable* state (what a crash would
    /// preserve). Folded into the harness's final-state hash so recorded
    /// artifacts pin the VFS state too.
    fn digest(&self) -> u64;

    /// Fault-injection hook: the deterministic in-memory implementation
    /// returns itself so the simulator can apply crash faults on kill;
    /// every other implementation keeps the default `None`.
    fn as_mem_mut(&mut self) -> Option<&mut MemVfs> {
        None
    }
}

/// One file's bytes. A buffer the file empties is released, not kept at
/// its largest size: a WAL that a snapshot truncated, or a tail that a
/// sync, an atomic write or a crash consumed, holds no memory.
#[derive(Debug, Clone, Default)]
struct MemFile {
    /// Bytes guaranteed to survive a crash.
    durable: Vec<u8>,
    /// Appended but not yet synced; a crash keeps only a seeded-random
    /// prefix of these.
    unsynced: Vec<u8>,
}

/// The deterministic in-memory VFS used by the simulator and harness.
#[derive(Debug, Clone)]
pub struct MemVfs {
    /// The files by name, in name order: the order `crash` draws torn-tail
    /// lengths in and `digest` folds them.
    files: VecMap<String, MemFile>,
    /// Drives crash-fault decisions (torn-tail lengths). Seeded from the
    /// simulation seed and the owning peer id, so replays are identical.
    rng: StdRng,
}

impl MemVfs {
    /// Creates an empty in-memory VFS with the given fault-injection seed.
    pub fn new(seed: u64) -> Self {
        MemVfs {
            files: VecMap::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Models a fail-stop of the owning process: for every file the
    /// un-synced tail is cut down to a seeded-random prefix — anywhere from
    /// nothing (the OS never flushed it) to all of it, including *partial
    /// records* (a torn tail write). After a crash the VFS serves the
    /// survivor's view: recovery sees exactly what a restarted process
    /// would. Applicable on every crash of the owning peer's lifetime: a
    /// restarted peer that crashes again gets its (new) un-synced tail torn
    /// just like the first time.
    pub fn crash(&mut self) {
        for file in self.files.values_mut() {
            if file.unsynced.is_empty() {
                continue;
            }
            let keep = self.rng.gen_range(0..=file.unsynced.len());
            file.durable.extend_from_slice(&file.unsynced[..keep]);
            file.unsynced = Vec::new();
        }
    }
}

impl Vfs for MemVfs {
    fn append(&mut self, file: &str, data: &[u8]) {
        self.files
            .get_or_insert_with(file, MemFile::default)
            .unsynced
            .extend_from_slice(data);
    }

    fn sync(&mut self, file: &str) {
        if let Some(f) = self.files.get_mut(file) {
            let tail = std::mem::take(&mut f.unsynced);
            f.durable.extend_from_slice(&tail);
        }
    }

    fn write_atomic(&mut self, file: &str, data: &[u8]) {
        let f = self.files.get_or_insert_with(file, MemFile::default);
        f.durable = data.to_vec();
        f.unsynced = Vec::new();
    }

    fn truncate(&mut self, file: &str) {
        if let Some(f) = self.files.get_mut(file) {
            *f = MemFile::default();
        }
    }

    fn read(&self, file: &str) -> Option<Vec<u8>> {
        self.files.get(file).map(|f| {
            let mut out = f.durable.clone();
            out.extend_from_slice(&f.unsynced);
            out
        })
    }

    fn digest(&self) -> u64 {
        let mut h: u64 = FNV_OFFSET;
        for (name, file) in self.files.as_slice() {
            h = fnv1a(h, name.as_bytes());
            h = fnv1a(h, &(file.durable.len() as u64).to_le_bytes());
            h = fnv1a(h, &file.durable);
        }
        h
    }

    fn as_mem_mut(&mut self) -> Option<&mut MemVfs> {
        Some(self)
    }
}

/// A real-file VFS rooted at a directory, used by examples. Not part of any
/// deterministic replay (wall-clock file systems are outside the simulation
/// contract); faults are whatever the OS provides.
#[derive(Debug)]
pub struct FileVfs {
    root: PathBuf,
}

impl FileVfs {
    /// Creates a file VFS rooted at `root` (created if missing).
    pub fn new(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(FileVfs { root })
    }

    fn path(&self, file: &str) -> PathBuf {
        self.root.join(file)
    }
}

impl Vfs for FileVfs {
    fn append(&mut self, file: &str, data: &[u8]) {
        let path = self.path(file);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("FileVfs append: open");
        f.write_all(data).expect("FileVfs append: write");
    }

    fn sync(&mut self, file: &str) {
        if let Ok(f) = std::fs::File::open(self.path(file)) {
            let _ = f.sync_all();
        }
    }

    fn write_atomic(&mut self, file: &str, data: &[u8]) {
        let tmp = self.path(&format!("{file}.tmp"));
        // fsync the temp file BEFORE the rename: renaming first would let a
        // power cut persist the new directory entry pointing at un-flushed
        // data blocks — neither the old nor the new content, exactly what
        // this method promises can never happen. The directory sync after
        // the rename makes the rename itself durable.
        {
            let mut f = std::fs::File::create(&tmp).expect("FileVfs write_atomic: create tmp");
            f.write_all(data).expect("FileVfs write_atomic: write tmp");
            f.sync_all().expect("FileVfs write_atomic: sync tmp");
        }
        std::fs::rename(&tmp, self.path(file)).expect("FileVfs write_atomic: rename");
        if let Ok(dir) = std::fs::File::open(&self.root) {
            let _ = dir.sync_all();
        }
    }

    fn truncate(&mut self, file: &str) {
        let _ = std::fs::write(self.path(file), b"");
    }

    fn read(&self, file: &str) -> Option<Vec<u8>> {
        std::fs::read(self.path(file)).ok()
    }

    /// Folds the same `(name, length, bytes)` sequence as
    /// [`MemVfs::digest`], with names relative to the root, so the digest
    /// does not depend on where the directory lives.
    fn digest(&self) -> u64 {
        let mut h: u64 = FNV_OFFSET;
        let mut names: Vec<String> = std::fs::read_dir(&self.root)
            .map(|rd| {
                rd.filter_map(|e| e.ok()?.file_name().into_string().ok())
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        for name in names {
            if let Some(bytes) = self.read(&name) {
                h = fnv1a(h, name.as_bytes());
                h = fnv1a(h, &(bytes.len() as u64).to_le_bytes());
                h = fnv1a(h, &bytes);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsynced_appends_are_lost_or_torn_on_crash() {
        let mut vfs = MemVfs::new(7);
        vfs.append("wal", b"synced-part");
        vfs.sync("wal");
        vfs.append("wal", b"unsynced-tail");
        assert_eq!(vfs.read("wal").unwrap(), b"synced-partunsynced-tail");
        vfs.crash();
        let after = vfs.read("wal").unwrap();
        // The synced prefix always survives; the tail survives only as a
        // (possibly empty, possibly partial) prefix.
        assert!(after.starts_with(b"synced-part"));
        assert!(after.len() <= b"synced-partunsynced-tail".len());
        assert!(b"unsynced-tail".starts_with(&after[b"synced-part".len()..]));
    }

    #[test]
    fn crash_faults_are_deterministic_per_seed() {
        let run = |seed| {
            let mut vfs = MemVfs::new(seed);
            vfs.append("wal", b"abc");
            vfs.sync("wal");
            for i in 0..20u8 {
                vfs.append("wal", &[i; 13]);
            }
            vfs.crash();
            vfs.read("wal").unwrap()
        };
        assert_eq!(run(1), run(1));
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn write_atomic_survives_crash_whole() {
        let mut vfs = MemVfs::new(3);
        vfs.append("snap", b"old");
        vfs.write_atomic("snap", b"new-image");
        vfs.append("snap", b"garbage");
        vfs.crash();
        let after = vfs.read("snap").unwrap();
        assert!(after.starts_with(b"new-image"));
    }

    #[test]
    fn digest_tracks_durable_state_only() {
        let mut a = MemVfs::new(1);
        let mut b = MemVfs::new(2);
        a.append("wal", b"xyz");
        a.sync("wal");
        b.append("wal", b"xyz");
        b.sync("wal");
        assert_eq!(a.digest(), b.digest(), "digest is seed-independent");
        b.append("wal", b"unsynced");
        assert_eq!(a.digest(), b.digest(), "unsynced bytes are not durable");
        b.sync("wal");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn truncate_clears_everything() {
        let mut vfs = MemVfs::new(5);
        vfs.append("wal", b"data");
        vfs.sync("wal");
        vfs.truncate("wal");
        assert_eq!(vfs.read("wal").unwrap(), b"");
    }

    #[test]
    fn truncate_releases_both_buffers() {
        let write = |vfs: &mut MemVfs| {
            vfs.append("wal", &[7; 4096]);
            vfs.sync("wal");
            vfs.append("wal", &[8; 512]);
        };
        let mut released = MemVfs::new(5);
        write(&mut released);
        released.truncate("wal");
        let file = released.files.get("wal").unwrap();
        assert_eq!(file.durable.capacity(), 0);
        assert_eq!(file.unsynced.capacity(), 0);
        // The same writes, emptied the way that kept both buffers.
        let mut kept = MemVfs::new(5);
        write(&mut kept);
        let file = kept.files.get_mut("wal").unwrap();
        file.durable.clear();
        file.unsynced.clear();
        assert!(file.durable.capacity() >= 4096);
        assert_eq!(released.read("wal"), kept.read("wal"));
        assert_eq!(released.read("wal").unwrap(), b"");
        assert_eq!(released.digest(), kept.digest());
        for vfs in [&mut released, &mut kept] {
            vfs.append("wal", b"again");
            vfs.sync("wal");
        }
        assert_eq!(released.read("wal"), kept.read("wal"));
        assert_eq!(released.digest(), kept.digest());
    }

    #[test]
    fn files_are_visited_in_name_order_whatever_order_made_them() {
        // `crash` draws each file's torn-tail length, and `digest` folds
        // the files, in name order, not in the order they were created.
        let crashed = |names: [&str; 2]| {
            let mut vfs = MemVfs::new(11);
            for name in names {
                vfs.append(name, &vec![name.len() as u8; 40 * name.len()]);
            }
            vfs.crash();
            vfs
        };
        let (a, b) = (crashed(["wal", "snapshot"]), crashed(["snapshot", "wal"]));
        assert_eq!(a.read("wal"), b.read("wal"));
        assert_eq!(a.read("snapshot"), b.read("snapshot"));
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn file_vfs_roundtrips() {
        let dir = std::env::temp_dir().join(format!("pepper-filevfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut vfs = FileVfs::new(&dir).unwrap();
        vfs.append("wal", b"hello ");
        vfs.append("wal", b"world");
        vfs.sync("wal");
        assert_eq!(vfs.read("wal").unwrap(), b"hello world");
        vfs.write_atomic("snap", b"image");
        assert_eq!(vfs.read("snap").unwrap(), b"image");
        vfs.truncate("wal");
        assert_eq!(vfs.read("wal").unwrap(), b"");
        assert!(vfs.read("absent").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_vfs_and_mem_vfs_digest_the_same_synced_writes_alike() {
        let dir = std::env::temp_dir().join(format!("pepper-vfs-digest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut file = FileVfs::new(&dir).unwrap();
        let mut mem = MemVfs::new(1);
        for vfs in [&mut file as &mut dyn Vfs, &mut mem] {
            vfs.append("wal", b"record-1");
            vfs.append("wal", b"record-2");
            vfs.sync("wal");
            vfs.write_atomic("snapshot", b"image");
        }
        assert_eq!(file.digest(), mem.digest());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
