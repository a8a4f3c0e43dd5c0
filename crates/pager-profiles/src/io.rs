//! Injectable storage I/O for the durability subsystem.
//!
//! Every byte the durability layer persists flows through the
//! [`StorageIo`] trait, so the same WAL/snapshot code runs against
//! three backends:
//!
//! - [`DiskIo`] — the real filesystem (what `pager-serve` uses);
//! - [`MemIo`] — a deterministic in-memory filesystem that models
//!   *crash durability*: written bytes are volatile until `sync`, new
//!   directory entries (created, renamed, or removed names alike) are
//!   volatile until `sync_dir`, and
//!   [`MemIo::crash`] collapses the volatile state exactly the way a
//!   power cut would (unsynced appends survive only as a seeded torn
//!   prefix, unsynced renames roll back);
//! - [`FaultyIo`] — a seeded fault injector over [`MemIo`] that makes
//!   operation *N* fail, short-write, flip a bit, or "crash" the disk,
//!   so recovery paths are exercised without real crashes (the
//!   FoundationDB/tigerbeetle simulation-testing shape).
//!
//! The model is deliberately pessimistic where POSIX is vague: a
//! created or renamed entry does not survive a crash until its
//! directory is synced, and unsynced file content may tear at any byte
//! (with an occasional flipped bit in the torn tail).

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// The file-system surface the durability layer needs.
///
/// Path-based rather than handle-based: every operation names its
/// file, which keeps fault injection and the in-memory model trivially
/// serializable (one operation = one injection point).
pub trait StorageIo: Send + Sync {
    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (`NotFound` included).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Creates or truncates `path` and writes `data`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Appends `data` to `path`, creating it if missing.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a failed append may have written a
    /// prefix of `data` (a *short write*).
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Makes `path`'s current content durable (`fsync`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn sync(&self, path: &Path) -> io::Result<()>;

    /// Atomically renames `from` to `to` (same directory).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Makes `dir`'s entry set (creates, renames, removes) durable.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// Creates `dir` and its parents.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// File names (not paths) directly under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;

    /// Truncates `path` to `len` bytes (used to drop a torn WAL tail).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
}

/// Writes `data` to `path` crash-atomically: temp file in the same
/// directory → `sync` → `rename` → `sync_dir`. After a crash the file
/// holds either its old content or all of `data`, never a mixture.
///
/// # Errors
///
/// Propagates I/O errors from any step; on error the target file is
/// untouched (a stale `.tmp` sibling may remain and is ignored by
/// recovery).
pub fn write_atomic(io: &dyn StorageIo, path: &Path, data: &[u8]) -> io::Result<()> {
    let dir = path
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    let mut tmp_name = path.file_name().map_or_else(
        || "atomic".to_string(),
        |n| n.to_string_lossy().into_owned(),
    );
    tmp_name.push_str(".tmp");
    let tmp = dir.join(tmp_name);
    io.write(&tmp, data)?;
    io.sync(&tmp)?;
    io.rename(&tmp, path)?;
    io.sync_dir(&dir)
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct DiskIo;

impl StorageIo for DiskIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(data)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .read(true)
            .open(path)?
            .sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Windows cannot open directories for syncing; the rename is
        // already durable-enough there. On Unix this is a real fsync
        // of the directory inode.
        match std::fs::File::open(dir) {
            Ok(handle) => handle.sync_all(),
            Err(_) => Ok(()),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(len)
    }
}

/// One in-memory file: the live bytes plus the bytes known durable.
#[derive(Debug, Clone, Default)]
struct MemFile {
    /// What reads see now.
    live: Vec<u8>,
    /// Content preserved across a crash *if the entry survives*
    /// (updated by `sync`).
    synced: Vec<u8>,
}

#[derive(Debug, Default)]
struct MemState {
    /// The live namespace.
    files: HashMap<PathBuf, MemFile>,
    /// Entries guaranteed to survive a crash under their current name.
    durable_names: std::collections::HashSet<PathBuf>,
    /// Synced content of durable entries whose live file was renamed
    /// away or removed; the old name still resurfaces on crash until
    /// its directory is synced.
    orphans: HashMap<PathBuf, Vec<u8>>,
    /// Directories that exist.
    dirs: std::collections::HashSet<PathBuf>,
}

/// Deterministic in-memory filesystem with a crash model.
#[derive(Debug, Default)]
pub struct MemIo {
    fs: Mutex<MemState>,
}

/// SplitMix64 — the deterministic generator behind the crash/fault
/// schedules (no external RNG dependency, no global state).
fn split_mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl MemIo {
    /// An empty in-memory filesystem.
    #[must_use]
    pub fn new() -> MemIo {
        MemIo::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemState> {
        self.fs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Simulates a power cut and reboot, deterministically from
    /// `seed`: volatile directory operations roll back, and each
    /// file's unsynced tail survives only as a seeded prefix —
    /// occasionally with one flipped bit, the way a torn sector reads
    /// back garbage.
    pub fn crash(&self, seed: u64) {
        let mut fs = self.lock();
        let mut rng = seed ^ 0xD1F7_5EED;
        let mut survivors: HashMap<PathBuf, MemFile> = HashMap::new();
        // Deterministic iteration: sort the durable names. Orphans
        // are durable entries whose rename/remove was never made
        // durable by a directory sync — the old name comes back.
        let mut names: Vec<PathBuf> = fs
            .durable_names
            .iter()
            .chain(fs.orphans.keys())
            .cloned()
            .collect();
        names.sort();
        names.dedup();
        for name in names {
            let mut content = match (fs.files.get(&name), fs.orphans.get(&name)) {
                (Some(file), _) => {
                    // Entry survives: synced prefix plus a torn piece
                    // of whatever was appended after the last sync.
                    let mut kept = file.synced.clone();
                    if file.live.len() > kept.len() && file.live.starts_with(&kept) {
                        let tail = &file.live[kept.len()..];
                        let keep = (split_mix(&mut rng) as usize) % (tail.len() + 1);
                        kept.extend_from_slice(&tail[..keep]);
                        if keep > 0 && split_mix(&mut rng).is_multiple_of(4) {
                            let bit = (split_mix(&mut rng) as usize) % (keep * 8);
                            let idx = kept.len() - keep + bit / 8;
                            kept[idx] ^= 1 << (bit % 8);
                        }
                    }
                    kept
                }
                (None, Some(old)) => old.clone(),
                (None, None) => Vec::new(),
            };
            content.shrink_to_fit();
            survivors.insert(
                name,
                MemFile {
                    live: content.clone(),
                    synced: content,
                },
            );
        }
        fs.files = survivors;
        fs.durable_names = fs.files.keys().cloned().collect();
        fs.orphans.clear();
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{}: no such file", path.display()),
    )
}

impl StorageIo for MemIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let fs = self.lock();
        fs.files
            .get(path)
            .map(|f| f.live.clone())
            .ok_or_else(|| not_found(path))
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut fs = self.lock();
        let file = fs.files.entry(path.to_path_buf()).or_default();
        file.live = data.to_vec();
        Ok(())
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut fs = self.lock();
        let file = fs.files.entry(path.to_path_buf()).or_default();
        file.live.extend_from_slice(data);
        Ok(())
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let mut fs = self.lock();
        let file = fs.files.get_mut(path).ok_or_else(|| not_found(path))?;
        file.synced = file.live.clone();
        // Pessimistic POSIX: fsync makes the *content* durable, but a
        // freshly created entry survives a crash only once its
        // directory is synced. Modeling the ext4-style
        // entry-on-fsync courtesy here would hide missing sync_dir
        // calls from every crash test.
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut fs = self.lock();
        let node = fs.files.remove(from).ok_or_else(|| not_found(from))?;
        // The old name stays durable (pointing at its synced content)
        // until the directory itself is synced.
        if fs.durable_names.remove(from) {
            let synced = node.synced.clone();
            fs.orphans.insert(from.to_path_buf(), synced);
        }
        // Likewise an overwritten target keeps its old durable bytes.
        if let Some(old) = fs.files.get(to) {
            if fs.durable_names.contains(to) {
                let synced = old.synced.clone();
                fs.orphans.insert(to.to_path_buf(), synced);
            }
        }
        fs.durable_names.remove(to);
        fs.files.insert(to.to_path_buf(), node);
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut fs = self.lock();
        let under = |p: &Path| p.parent() == Some(dir);
        let present: Vec<PathBuf> = fs.files.keys().filter(|p| under(p)).cloned().collect();
        fs.durable_names.retain(|p| !under(p));
        for path in present {
            fs.durable_names.insert(path);
        }
        fs.orphans.retain(|p, _| !under(p));
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut fs = self.lock();
        let node = fs.files.remove(path).ok_or_else(|| not_found(path))?;
        if fs.durable_names.remove(path) {
            fs.orphans.insert(path.to_path_buf(), node.synced);
        }
        Ok(())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.lock().dirs.insert(dir.to_path_buf());
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let fs = self.lock();
        let mut names: Vec<String> = fs
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        names.sort();
        Ok(names)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut fs = self.lock();
        let file = fs.files.get_mut(path).ok_or_else(|| not_found(path))?;
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        if len < file.live.len() {
            file.live.truncate(len);
        }
        Ok(())
    }
}

/// What [`FaultyIo`] does at its scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with an I/O error; later operations
    /// succeed (a transient disk hiccup).
    Error,
    /// The operation fails and every later one does too (the disk is
    /// gone); pair with [`MemIo::crash`] to model a reboot.
    Crash,
    /// A write/append persists only a seeded prefix of its bytes,
    /// then fails (a torn write). Non-write operations fail plainly.
    ShortWrite,
    /// A write/append silently persists with one bit flipped (media
    /// corruption the checksums must catch).
    FlipBit,
}

/// Deterministic fault injection over a [`MemIo`].
///
/// Operations are numbered in call order; at operation `fault_at` the
/// configured [`FaultKind`] fires. [`FaultyIo::from_seed`] derives the
/// whole schedule from one integer so a failing schedule reproduces
/// exactly.
pub struct FaultyIo {
    inner: std::sync::Arc<MemIo>,
    ops: AtomicU64,
    fault_at: u64,
    kind: FaultKind,
    seed: u64,
    dead: AtomicBool,
}

impl FaultyIo {
    /// Injects `kind` at operation `fault_at` (0-based).
    #[must_use]
    pub fn new(
        inner: std::sync::Arc<MemIo>,
        fault_at: u64,
        kind: FaultKind,
        seed: u64,
    ) -> FaultyIo {
        FaultyIo {
            inner,
            ops: AtomicU64::new(0),
            fault_at,
            kind,
            seed,
            dead: AtomicBool::new(false),
        }
    }

    /// Derives `(fault_at, kind)` from `seed`: the operation index is
    /// `seed`-uniform below `horizon` and the kind cycles through all
    /// four, so a `0..n` seed sweep covers the schedule space evenly.
    #[must_use]
    pub fn from_seed(inner: std::sync::Arc<MemIo>, seed: u64, horizon: u64) -> FaultyIo {
        let mut state = seed ^ 0xFA17_1EED;
        let fault_at = split_mix(&mut state) % horizon.max(1);
        let kind = match split_mix(&mut state) % 4 {
            0 => FaultKind::Error,
            1 => FaultKind::Crash,
            2 => FaultKind::ShortWrite,
            _ => FaultKind::FlipBit,
        };
        FaultyIo::new(inner, fault_at, kind, seed)
    }

    /// The scheduled fault kind.
    #[must_use]
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// The scheduled operation index.
    #[must_use]
    pub fn fault_at(&self) -> u64 {
        self.fault_at
    }

    /// Whether the simulated disk has died (a [`FaultKind::Crash`]
    /// fired).
    #[must_use]
    pub fn dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// `Some(kind)` when this call is the faulty one.
    fn tick(&self) -> io::Result<Option<FaultKind>> {
        if self.dead.load(Ordering::Acquire) {
            return Err(io::Error::other("injected fault: disk is gone"));
        }
        let n = self.ops.fetch_add(1, Ordering::AcqRel);
        if n != self.fault_at {
            return Ok(None);
        }
        match self.kind {
            FaultKind::Crash => {
                self.dead.store(true, Ordering::Release);
                Err(io::Error::other("injected fault: disk died"))
            }
            kind => Ok(Some(kind)),
        }
    }

    /// Applies write-shaped faults; `append` says whether partial data
    /// should be appended or written whole-file.
    fn faulty_write(&self, path: &Path, data: &[u8], append: bool) -> io::Result<()> {
        let Some(kind) = self.tick()? else {
            return if append {
                self.inner.append(path, data)
            } else {
                self.inner.write(path, data)
            };
        };
        match kind {
            FaultKind::ShortWrite => {
                let mut state = self.seed ^ 0x5807_1e1d;
                let keep = (split_mix(&mut state) as usize) % (data.len() + 1);
                if append {
                    self.inner.append(path, &data[..keep])?;
                } else {
                    self.inner.write(path, &data[..keep])?;
                }
                Err(io::Error::other("injected fault: short write"))
            }
            FaultKind::FlipBit => {
                let mut corrupted = data.to_vec();
                if !corrupted.is_empty() {
                    let mut state = self.seed ^ 0xF11B;
                    let bit = (split_mix(&mut state) as usize) % (corrupted.len() * 8);
                    corrupted[bit / 8] ^= 1 << (bit % 8);
                }
                if append {
                    self.inner.append(path, &corrupted)
                } else {
                    self.inner.write(path, &corrupted)
                }
            }
            FaultKind::Error | FaultKind::Crash => {
                Err(io::Error::other("injected fault: I/O error"))
            }
        }
    }

    /// Applies the fault schedule to a non-write operation.
    fn faulty_op<T>(&self, op: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        match self.tick()? {
            // Write-shaped faults degrade to a plain error on
            // operations with no data to tear or flip.
            Some(_) => Err(io::Error::other("injected fault: I/O error")),
            None => op(),
        }
    }
}

impl StorageIo for FaultyIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.faulty_op(|| self.inner.read(path))
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.faulty_write(path, data, false)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.faulty_write(path, data, true)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.faulty_op(|| self.inner.sync(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.faulty_op(|| self.inner.rename(from, to))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.faulty_op(|| self.inner.sync_dir(dir))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.faulty_op(|| self.inner.remove(path))
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.faulty_op(|| self.inner.create_dir_all(dir))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.faulty_op(|| self.inner.list(dir))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.faulty_op(|| self.inner.truncate(path, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn mem_io_round_trip() {
        let io = MemIo::new();
        io.write(&p("/d/a"), b"hello").unwrap();
        io.append(&p("/d/a"), b" world").unwrap();
        assert_eq!(io.read(&p("/d/a")).unwrap(), b"hello world");
        assert!(io.read(&p("/d/missing")).is_err());
        io.truncate(&p("/d/a"), 5).unwrap();
        assert_eq!(io.read(&p("/d/a")).unwrap(), b"hello");
        assert_eq!(io.list(&p("/d")).unwrap(), vec!["a".to_string()]);
    }

    #[test]
    fn unsynced_writes_do_not_survive_a_crash() {
        let io = MemIo::new();
        io.write(&p("/d/a"), b"durable").unwrap();
        io.sync(&p("/d/a")).unwrap();
        io.sync_dir(&p("/d")).unwrap();
        io.write(&p("/d/b"), b"volatile").unwrap();
        io.crash(1);
        assert_eq!(io.read(&p("/d/a")).unwrap(), b"durable");
        assert!(io.read(&p("/d/b")).is_err(), "unsynced file survived");
    }

    #[test]
    fn fsync_alone_does_not_persist_a_new_entry() {
        // Pessimistic POSIX: the file's bytes are synced but its
        // directory entry is not — a crash loses the whole file.
        let io = MemIo::new();
        io.write(&p("/d/a"), b"content").unwrap();
        io.sync(&p("/d/a")).unwrap();
        io.crash(1);
        assert!(
            io.read(&p("/d/a")).is_err(),
            "entry survived without a directory sync"
        );
    }

    #[test]
    fn unsynced_appends_tear_at_a_seeded_point() {
        for seed in 0..32 {
            let io = MemIo::new();
            io.write(&p("/d/wal"), b"synced").unwrap();
            io.sync(&p("/d/wal")).unwrap();
            io.sync_dir(&p("/d")).unwrap();
            io.append(&p("/d/wal"), b"0123456789").unwrap();
            io.crash(seed);
            let after = io.read(&p("/d/wal")).unwrap();
            assert!(after.len() >= b"synced".len(), "synced prefix lost");
            assert!(after.len() <= b"synced0123456789".len());
            assert_eq!(&after[..4], b"sync", "synced bytes corrupted");
        }
    }

    #[test]
    fn unsynced_rename_rolls_back_on_crash() {
        let io = MemIo::new();
        io.write(&p("/d/tmp"), b"snapshot").unwrap();
        io.sync(&p("/d/tmp")).unwrap();
        io.sync_dir(&p("/d")).unwrap();
        io.rename(&p("/d/tmp"), &p("/d/snap")).unwrap();
        // No second sync_dir: the rename is volatile.
        io.crash(7);
        assert_eq!(io.read(&p("/d/tmp")).unwrap(), b"snapshot");
        assert!(io.read(&p("/d/snap")).is_err(), "volatile rename survived");
    }

    #[test]
    fn synced_rename_survives_crash() {
        let io = MemIo::new();
        io.write(&p("/d/tmp"), b"snapshot").unwrap();
        io.sync(&p("/d/tmp")).unwrap();
        io.rename(&p("/d/tmp"), &p("/d/snap")).unwrap();
        io.sync_dir(&p("/d")).unwrap();
        io.crash(7);
        assert_eq!(io.read(&p("/d/snap")).unwrap(), b"snapshot");
        assert!(io.read(&p("/d/tmp")).is_err(), "old name survived dir sync");
    }

    #[test]
    fn write_atomic_is_all_or_nothing_across_crashes() {
        let io = MemIo::new();
        io.write(&p("/d/file"), b"old").unwrap();
        io.sync(&p("/d/file")).unwrap();
        io.sync_dir(&p("/d")).unwrap();
        write_atomic(&io, &p("/d/file"), b"new-content").unwrap();
        io.crash(3);
        assert_eq!(io.read(&p("/d/file")).unwrap(), b"new-content");
    }

    #[test]
    fn faulty_io_fires_exactly_once_unless_crash() {
        let mem = Arc::new(MemIo::new());
        let io = FaultyIo::new(Arc::clone(&mem), 1, FaultKind::Error, 0);
        io.write(&p("/d/a"), b"x").unwrap(); // op 0
        assert!(io.write(&p("/d/a"), b"y").is_err()); // op 1: fault
        io.write(&p("/d/a"), b"z").unwrap(); // op 2: healthy again

        let io = FaultyIo::new(Arc::clone(&mem), 0, FaultKind::Crash, 0);
        assert!(io.write(&p("/d/a"), b"x").is_err());
        assert!(io.dead());
        assert!(io.read(&p("/d/a")).is_err(), "dead disk answered");
    }

    #[test]
    fn short_write_persists_a_prefix() {
        let mem = Arc::new(MemIo::new());
        let io = FaultyIo::new(Arc::clone(&mem), 0, FaultKind::ShortWrite, 42);
        assert!(io.append(&p("/d/wal"), b"0123456789").is_err());
        let written = mem.read(&p("/d/wal")).map_or(0, |b| b.len());
        assert!(written <= 10, "wrote more than the data");
    }

    #[test]
    fn flip_bit_corrupts_silently() {
        let mem = Arc::new(MemIo::new());
        let io = FaultyIo::new(Arc::clone(&mem), 0, FaultKind::FlipBit, 9);
        io.append(&p("/d/wal"), &[0u8; 16]).unwrap();
        let bytes = mem.read(&p("/d/wal")).unwrap();
        let ones: u32 = bytes.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "exactly one flipped bit");
    }

    #[test]
    fn seeded_schedules_are_deterministic() {
        for seed in 0..16 {
            let a = FaultyIo::from_seed(Arc::new(MemIo::new()), seed, 100);
            let b = FaultyIo::from_seed(Arc::new(MemIo::new()), seed, 100);
            assert_eq!(a.fault_at(), b.fault_at());
            assert_eq!(a.kind(), b.kind());
            assert!(a.fault_at() < 100);
        }
    }
}
