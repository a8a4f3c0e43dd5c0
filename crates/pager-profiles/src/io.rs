//! Injectable storage I/O for the durability subsystem.
//!
//! Every byte the durability layer persists flows through the
//! [`StorageIo`] trait, so the same WAL/snapshot code runs against
//! three backends:
//!
//! - [`DiskIo`] — the real filesystem (what `pager-serve` uses);
//! - [`MemIo`] — a deterministic in-memory filesystem that models
//!   *crash durability*: written bytes are volatile until `sync`, new
//!   directory entries (created, renamed, or removed
//!   names alike) are volatile until `sync_dir`, and
//!   [`MemIo::crash`] collapses the volatile state exactly the way a
//!   power cut would (each unsynced run of changed bytes survives only
//!   as a seeded prefix, independently of the others, and unsynced
//!   renames and truncations roll back);
//! - [`FaultyIo`] — a seeded fault injector over [`MemIo`] that makes
//!   operation *N* fail, short-write, flip a bit, or "crash" the disk,
//!   so recovery paths are exercised without real crashes (the
//!   FoundationDB/tigerbeetle simulation-testing shape).
//!
//! The WAL's ack path is a positioned write ([`StorageIo::write_at`])
//! into space the file already has, then [`StorageIo::sync`], which is
//! `fdatasync` on disk. Since the file size does not change there, the
//! sync has no inode size to commit; the space itself is written as
//! zeros ahead of time, a whole extent at once, and made durable by
//! the first sync that follows.
//!
//! The model is deliberately pessimistic where POSIX is vague: a
//! created or renamed entry does not survive a crash until its
//! directory is synced, and unsynced file content may tear at any byte
//! (with an occasional flipped bit in the torn piece), a later
//! overwrite surviving while an earlier one is lost.

use std::collections::HashMap;
use std::io;
use std::ops::Range;
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// The file-system surface the durability layer needs.
///
/// Path-based rather than handle-based: every operation names its
/// file, which keeps fault injection and the in-memory model trivially
/// serializable (one operation = one injection point). Reopening a
/// file per operation costs nothing measurable next to the sync that
/// follows it on the WAL's ack path, so [`DiskIo`] holds no handles.
pub trait StorageIo: Send + Sync {
    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (`NotFound` included).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Reads up to `len` bytes of `path` from `offset`: fewer when the
    /// file ends first, none when `offset` is its length.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when `offset` lies past the end of the file;
    /// otherwise propagates I/O errors (`NotFound` included).
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>>;

    /// Creates or truncates `path` and writes `data`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Writes `data` at `offset` of `path` (`pwrite`), creating the
    /// file if missing. A write past the end grows the file, and any
    /// gap before `offset` reads back as zeros.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a failed write may have written a
    /// prefix of `data` (a *short write*).
    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> io::Result<()>;

    /// Makes `path`'s current content and size durable (`fdatasync`).
    /// POSIX commits a changed size (growth or truncation) with the
    /// data, because reading the data back needs it; only metadata
    /// such as timestamps is left out. The sync is cheapest when the
    /// size has not changed since the last one.
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
pub(crate) fn write_atomic(io: &dyn StorageIo, path: &Path, data: &[u8]) -> io::Result<()> {
    // A bare file name has the empty parent, which cannot be opened
    // for a directory sync.
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    let mut tmp_name = path.file_name().map_or_else(
        || "atomic".to_string(),
        |n| n.to_string_lossy().into_owned(),
    );
    tmp_name.push_str(".tmp");
    let tmp = dir.join(tmp_name);
    io.write(&tmp, data)?;
    io.sync(&tmp)?;
    io.rename(&tmp, path)?;
    io.sync_dir(dir)
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct DiskIo;

impl StorageIo for DiskIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let file = std::fs::File::open(path)?;
        let size = file.metadata()?.len();
        let rest = size
            .checked_sub(offset)
            .ok_or_else(|| past_end(path, offset, size))?;
        let mut bytes = vec![0; usize::try_from(rest).map_or(len, |rest| rest.min(len))];
        file.read_exact_at(&mut bytes, offset)?;
        Ok(bytes)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }

    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?
            .write_all_at(data, offset)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_data()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::File::open(dir)?.sync_all()
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
    /// The span of `live` written since the last sync; outside it,
    /// `live` and `synced` agree. Empty when the file is clean.
    dirty: Range<usize>,
}

impl MemFile {
    /// Widens the dirty span to cover `range`.
    fn touch(&mut self, range: Range<usize>) {
        self.dirty = if self.dirty.is_empty() {
            range
        } else {
            self.dirty.start.min(range.start)..self.dirty.end.max(range.end)
        };
    }

    /// Makes the live content durable.
    fn sync(&mut self) {
        self.synced.resize(self.live.len(), 0);
        let dirty = self.dirty.start..self.dirty.end.min(self.live.len());
        if !dirty.is_empty() {
            self.synced[dirty.clone()].copy_from_slice(&self.live[dirty]);
        }
        self.dirty = 0..0;
    }

    /// What a power cut leaves of this file: its synced content, with
    /// each unsynced run of changed bytes torn independently of every
    /// other (so a later write may survive while an earlier one is
    /// lost). Unsynced growth tears the same way; an unsynced
    /// truncation rolls back.
    fn after_crash(&self, rng: &mut u64) -> Vec<u8> {
        let mut kept = self.synced.clone();
        let common = self.live.len().min(kept.len());
        let end = self.dirty.end.min(common);
        let mut at = self.dirty.start.min(end);
        while at < end {
            if self.live[at] == kept[at] {
                at += 1;
                continue;
            }
            let start = at;
            while at < end && self.live[at] != kept[at] {
                at += 1;
            }
            tear(&mut kept[start..at], &self.live[start..at], rng);
        }
        let grown = kept.len();
        if self.live.len() > grown {
            kept.resize(self.live.len(), 0);
            let keep = tear(&mut kept[grown..], &self.live[grown..], rng);
            kept.truncate(grown + keep);
        }
        kept
    }
}

/// Overwrites a seeded prefix of `old` with the matching prefix of
/// `new`, occasionally with one flipped bit (the way a torn sector
/// reads back garbage), and returns the prefix length.
fn tear(old: &mut [u8], new: &[u8], rng: &mut u64) -> usize {
    let keep = (split_mix(rng) as usize) % (new.len() + 1);
    old[..keep].copy_from_slice(&new[..keep]);
    if keep > 0 && split_mix(rng).is_multiple_of(4) {
        let bit = (split_mix(rng) as usize) % (keep * 8);
        old[bit / 8] ^= 1 << (bit % 8);
    }
    keep
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
    /// file's unsynced changes survive only as seeded torn pieces.
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
                (Some(file), _) => file.after_crash(&mut rng),
                (None, Some(old)) => old.clone(),
                (None, None) => Vec::new(),
            };
            content.shrink_to_fit();
            survivors.insert(
                name,
                MemFile {
                    live: content.clone(),
                    synced: content,
                    dirty: 0..0,
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

fn past_end(path: &Path, offset: u64, size: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!(
            "{}: offset {offset} is past the end ({size} bytes)",
            path.display()
        ),
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

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let fs = self.lock();
        let live = &fs.files.get(path).ok_or_else(|| not_found(path))?.live;
        let start = usize::try_from(offset)
            .ok()
            .filter(|&start| start <= live.len())
            .ok_or_else(|| past_end(path, offset, live.len() as u64))?;
        let end = start.saturating_add(len).min(live.len());
        Ok(live[start..end].to_vec())
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut fs = self.lock();
        let file = fs.files.entry(path.to_path_buf()).or_default();
        file.live = data.to_vec();
        file.touch(0..data.len());
        Ok(())
    }

    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> io::Result<()> {
        let end = usize::try_from(offset)
            .ok()
            .and_then(|start| start.checked_add(data.len()))
            .ok_or_else(|| {
                io::Error::other(format!("{}: offset {offset} out of memory", path.display()))
            })?;
        let start = end - data.len();
        let mut fs = self.lock();
        let file = fs.files.entry(path.to_path_buf()).or_default();
        // A gap before `start` is written too: it reads back as zeros.
        file.touch(start.min(file.live.len())..end);
        if file.live.len() < end {
            file.live.resize(end, 0);
        }
        file.live[start..end].copy_from_slice(data);
        Ok(())
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let mut fs = self.lock();
        fs.files
            .get_mut(path)
            .ok_or_else(|| not_found(path))?
            .sync();
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
    /// A `write`/`write_at` persists only a seeded prefix of its
    /// bytes, then fails (a torn write). Other operations fail
    /// plainly.
    ShortWrite,
    /// A `write`/`write_at` silently persists with one bit flipped (media
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

    /// Operations issued so far, the faulty one included: a fault-free
    /// run's count is the horizon a seeded schedule must cover.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Acquire)
    }

    /// Whether the simulated disk has died (a [`FaultKind::Crash`]
    /// fired).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn dead(&self) -> bool {
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

    /// Applies write-shaped faults to a write that `put` performs.
    fn faulty_write(
        &self,
        data: &[u8],
        put: impl FnOnce(&[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        let Some(kind) = self.tick()? else {
            return put(data);
        };
        match kind {
            FaultKind::ShortWrite => {
                let mut state = self.seed ^ 0x5807_1e1d;
                let keep = (split_mix(&mut state) as usize) % (data.len() + 1);
                put(&data[..keep])?;
                Err(io::Error::other("injected fault: short write"))
            }
            FaultKind::FlipBit => {
                let mut corrupted = data.to_vec();
                if !corrupted.is_empty() {
                    let mut state = self.seed ^ 0xF11B;
                    let bit = (split_mix(&mut state) as usize) % (corrupted.len() * 8);
                    corrupted[bit / 8] ^= 1 << (bit % 8);
                }
                put(&corrupted)
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

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.faulty_op(|| self.inner.read_at(path, offset, len))
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.faulty_write(data, |data| self.inner.write(path, data))
    }

    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> io::Result<()> {
        self.faulty_write(data, |data| self.inner.write_at(path, offset, data))
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
        io.write_at(&p("/d/a"), 5, b" world").unwrap();
        assert_eq!(io.read(&p("/d/a")).unwrap(), b"hello world");
        io.write_at(&p("/d/a"), 0, b"J").unwrap();
        assert_eq!(io.read_at(&p("/d/a"), 0, 5).unwrap(), b"Jello");
        assert_eq!(io.read_at(&p("/d/a"), 6, 64).unwrap(), b"world");
        assert!(io.read_at(&p("/d/a"), 11, 4).unwrap().is_empty());
        assert_eq!(
            io.read_at(&p("/d/a"), 12, 4).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert!(io.read(&p("/d/missing")).is_err());
        io.truncate(&p("/d/a"), 5).unwrap();
        assert_eq!(io.read(&p("/d/a")).unwrap(), b"Jello");
        // A write past the end zero-fills the gap.
        io.write_at(&p("/d/a"), 7, b"!").unwrap();
        assert_eq!(io.read(&p("/d/a")).unwrap(), b"Jello\0\0!");
        assert_eq!(io.list(&p("/d")).unwrap(), vec!["a".to_string()]);
    }

    #[test]
    fn disk_io_positioned_calls_match_mem_io() {
        let dir = std::env::temp_dir().join(format!("pager-io-{}", std::process::id()));
        DiskIo.create_dir_all(&dir).unwrap();
        let path = dir.join("a");
        for io in [&DiskIo as &dyn StorageIo, &MemIo::new()] {
            io.write_at(&path, 3, b"xyz").unwrap();
            io.write_at(&path, 0, b"ab").unwrap();
            io.sync(&path).unwrap();
            assert_eq!(io.read(&path).unwrap(), b"ab\0xyz");
            assert_eq!(io.read_at(&path, 2, 2).unwrap(), b"\0x");
            assert_eq!(io.read_at(&path, 4, 9).unwrap(), b"yz");
            assert_eq!(
                io.read_at(&path, 7, 1).unwrap_err().kind(),
                io::ErrorKind::InvalidInput
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_io_reports_a_directory_it_cannot_sync() {
        let missing = std::env::temp_dir()
            .join(format!("pager-io-missing-{}", std::process::id()))
            .join("data");
        assert_eq!(
            DiskIo.sync_dir(&missing).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
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
            io.write_at(&p("/d/wal"), 6, b"0123456789").unwrap();
            io.crash(seed);
            let after = io.read(&p("/d/wal")).unwrap();
            assert!(after.len() >= b"synced".len(), "synced prefix lost");
            assert!(after.len() <= b"synced0123456789".len());
            assert_eq!(&after[..4], b"sync", "synced bytes corrupted");
        }
    }

    #[test]
    fn unsynced_overwrites_tear_independently() {
        // Two unsynced writes into synced zeros: across seeds, each
        // survives whole, torn or not at all, the later one sometimes
        // without the earlier, and the synced bytes between them never
        // change.
        let mut later_without_earlier = false;
        for seed in 0..64 {
            let io = MemIo::new();
            io.write(&p("/d/wal"), &[0; 16]).unwrap();
            io.sync(&p("/d/wal")).unwrap();
            io.sync_dir(&p("/d")).unwrap();
            io.write_at(&p("/d/wal"), 2, b"abc").unwrap();
            io.write_at(&p("/d/wal"), 10, b"xyz").unwrap();
            io.crash(seed);
            let after = io.read(&p("/d/wal")).unwrap();
            assert_eq!(after.len(), 16, "seed {seed}: size changed");
            assert!(after[5..10].iter().all(|&b| b == 0), "seed {seed}");
            later_without_earlier |= after[2] == 0 && after[10] == b'x';
        }
        assert!(later_without_earlier, "runs never tore independently");
    }

    #[test]
    fn sync_makes_overwrites_durable_and_truncation_needs_a_sync() {
        let io = MemIo::new();
        io.write(&p("/d/wal"), &[0; 8]).unwrap();
        io.sync(&p("/d/wal")).unwrap();
        io.sync_dir(&p("/d")).unwrap();
        io.write_at(&p("/d/wal"), 0, b"frame").unwrap();
        io.sync(&p("/d/wal")).unwrap();
        io.truncate(&p("/d/wal"), 5).unwrap();
        io.crash(1);
        assert_eq!(io.read(&p("/d/wal")).unwrap(), b"frame\0\0\0");
        io.truncate(&p("/d/wal"), 5).unwrap();
        io.sync(&p("/d/wal")).unwrap();
        io.crash(2);
        assert_eq!(io.read(&p("/d/wal")).unwrap(), b"frame");
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
        assert!(io.write_at(&p("/d/wal"), 0, b"0123456789").is_err());
        let written = mem.read(&p("/d/wal")).map_or(0, |b| b.len());
        assert!(written <= 10, "wrote more than the data");
    }

    #[test]
    fn flip_bit_corrupts_silently() {
        let mem = Arc::new(MemIo::new());
        let io = FaultyIo::new(Arc::clone(&mem), 0, FaultKind::FlipBit, 9);
        io.write_at(&p("/d/wal"), 0, &[0u8; 16]).unwrap();
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
