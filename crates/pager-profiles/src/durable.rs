//! Crash-safe persistence for [`ProfileStore`]: WAL + atomic
//! generation-numbered snapshots.
//!
//! # Layout
//!
//! A data directory holds at most one live generation `G`:
//!
//! ```text
//! data-dir/
//!   snapshot.G.json   # full store snapshot (one JSON line)
//!   wal.G.log         # sightings ingested since snapshot G
//! ```
//!
//! The live `wal.G.log` is longer than its frames: it grows in
//! zero-filled extents of [`EXTENT_BYTES`], and the frames fill it
//! from the front. The store's `wal.len`
//! is where the frames end; the file length is where the zeros end.
//! [`crate::wal::scan`] stops at the first zero length word, so the
//! zero tail reads as free space.
//!
//! # The acked-write guarantee
//!
//! [`DurableStore::observe_batch`] applies sightings to the in-memory
//! store, writes their WAL records at `wal.len`, and (under
//! [`FsyncPolicy::Always`]) syncs the file — all before returning. The
//! sync is `fdatasync`, which commits the bytes and any size change.
//! Only the ack that opens a new extent changes the size; every other
//! ack writes into zeros an earlier sync already made durable, so its
//! sync commits nothing but its own frames. The first append of each
//! generation (and the first after each open) also fsyncs the data
//! directory, so the WAL file's *entry* is durable, not just its
//! bytes. A success return therefore means the sightings are durable:
//! any later crash recovers them from `snapshot.G + wal.G`.
//!
//! The guarantee is protected at ingest: a sighting that cannot be
//! encoded within the WAL's frame bounds (device name over
//! [`crate::wal::MAX_DEVICE_BYTES`], values that do not fit the wire)
//! is rejected before it is applied or logged — otherwise one
//! oversized record would be acked now and truncate the log (plus
//! every acked record after it) at the next recovery.
//!
//! # Recovery truncates before it appends
//!
//! A crash can tear unsynced frames in any pattern: a later frame may
//! reach the disk whole while the one before it is torn. Recovery
//! replays up to the first bad frame and, when anything but zeros
//! follows it, truncates the file there and syncs before the first
//! new append, which then opens a fresh extent. Otherwise a stale
//! whole frame behind the torn one could line up with the end of a
//! later append and replay out of order at the next recovery. A tail
//! of zeros alone is free space and is kept.
//!
//! # Checkpoint ordering
//!
//! [`DurableStore::checkpoint`] first truncates `wal.G` to its frames
//! and fsyncs it, then writes `snapshot.{G+1}` via temp file → sync →
//! rename → dir sync, and only *then* switches appends to `wal.{G+1}`
//! and removes generation `G`. The snapshot-before-switch order is the
//! safety argument: if any record in `wal.{G+1}` is durable,
//! `snapshot.{G+1}` was durable first, so recovery (which picks the
//! highest-generation valid snapshot) can never pair a new WAL with an
//! old snapshot and drop the acked records in between. Truncating
//! first means a closed generation never has a zero tail on disk, so
//! a shipper that reads it to its end stops exactly after its frames;
//! a crash between the truncation and the snapshot recovers
//! generation `G` whole, since truncation drops only zeros.
//!
//! # Degraded mode
//!
//! Any WAL or checkpoint I/O failure flips the store into degraded
//! mode: ingest is rejected with [`DurableError::Degraded`] (the
//! durability promise can no longer be kept) while reads — and
//! therefore planning — keep serving from memory. The process stays
//! up; the operator replaces the disk.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use jsonio::metrics::Counter;

use crate::io::{write_atomic, StorageIo};
use crate::store::{ProfileStore, Sighting, StoreConfig};
use crate::wal::{encode_record, nonzero_len, scan, SightingRecord, EXTENT_BYTES};

/// The source of every zero the WAL writes to a new extent, a chunk of
/// this at a time. A quarter extent rather than a whole one, because
/// the buffer lives in the binary's read-only data and its pages count
/// as resident memory once they are written from.
static ZEROS: [u8; EXTENT_BYTES / 4] = [0; EXTENT_BYTES / 4];

/// When appended WAL records are fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync before every ack — the full acked-write guarantee.
    Always,
    /// Fsync every `n` appended records (group commit); a crash can
    /// lose up to the last `n - 1` acked sightings.
    Interval(u64),
    /// Never fsync during ingest (the OS flushes when it pleases);
    /// fastest, weakest.
    Never,
}

impl FsyncPolicy {
    /// Parses `always`, `never`, or `interval:<n>`.
    ///
    /// # Errors
    ///
    /// A message naming the valid forms.
    pub fn parse(text: &str) -> Result<FsyncPolicy, String> {
        match text {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => match other.strip_prefix("interval:") {
                Some(n) => match n.parse::<u64>() {
                    Ok(n) if n > 0 => Ok(FsyncPolicy::Interval(n)),
                    _ => Err(format!(
                        "bad fsync interval {n:?} (need a positive integer)"
                    )),
                },
                None => Err(format!(
                    "bad fsync policy {other:?} (expected always, never, or interval:<n>)"
                )),
            },
        }
    }
}

/// Durability knobs.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// Fsync policy for WAL appends.
    pub fsync: FsyncPolicy,
    /// Schedule a checkpoint after this many WAL records (0 disables
    /// count-triggered checkpoints).
    pub checkpoint_every: u64,
    /// How many *previous* WAL generations a checkpoint keeps on disk
    /// (0 = remove immediately, the pre-replication behaviour). A WAL
    /// shipper tailing this store through
    /// [`DurableStore::export_wal`] needs rotated generations to
    /// survive long enough to finish reading them; retention bounds
    /// how far a follower may lag without losing records.
    pub retain_wal: u64,
}

impl Default for DurabilityConfig {
    fn default() -> DurabilityConfig {
        DurabilityConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_every: 10_000,
            retain_wal: 0,
        }
    }
}

/// One chunk of WAL bytes exported for shipping (the `wal_ship` wire
/// op's payload). `bytes` starts at `offset` within generation
/// `generation`'s log and holds only whole bytes as they are on disk —
/// the receiver runs [`crate::wal::scan`] and advances its cursor by
/// the scan's `valid_len`, so a chunk cut mid-frame is re-fetched, not
/// corrupted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalSegment {
    /// Generation the bytes come from.
    pub generation: u64,
    /// Offset of `bytes[0]` within that generation's WAL file.
    pub offset: u64,
    /// Raw framed bytes (possibly empty when the caller is caught up).
    pub bytes: Vec<u8>,
    /// The generation currently receiving appends. When it is greater
    /// than `generation`, the requested generation is closed.
    pub latest_generation: u64,
    /// `true` when `offset + bytes.len()` reaches the end of a
    /// *closed* generation: the follower should advance to
    /// `(generation + 1, 0)`.
    pub end_of_generation: bool,
}

/// The WAL frames one [`DurableStore::observe_batch`] appended, for a
/// shipper to forward to followers without reading them back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalAppend {
    /// The open of the store that wrote them: a nonce drawn by
    /// [`DurableStore::open`]. A reopen may recover a shorter log than
    /// a follower has already been shipped, so a follower's cursor is
    /// only known to index this WAL while the incarnation it was last
    /// advanced against is unchanged.
    pub incarnation: u64,
    /// Generation the frames were appended to.
    pub generation: u64,
    /// Offset of `bytes[0]` within that generation's WAL file.
    pub offset: u64,
    /// The frames, exactly as appended (empty when nothing was).
    pub bytes: Vec<u8>,
}

/// What recovery found on open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation recovered into (0 when starting fresh).
    pub generation: u64,
    /// Whether a snapshot file was loaded.
    pub snapshot_loaded: bool,
    /// WAL records replayed into the store.
    pub recovered_records: u64,
    /// Bytes dropped from the WAL tail (torn writes, corruption), up
    /// to its last non-zero byte; the zero tail is free space.
    pub truncated_bytes: u64,
}

/// Why a durable ingest was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// The sighting itself is invalid (bad cell, time regression, …);
    /// nothing to do with the disk.
    Rejected(String),
    /// The data disk failed; the store is read-only until restarted
    /// on a healthy disk. Carries the triggering I/O error.
    Degraded(String),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Rejected(message) => write!(f, "{message}"),
            DurableError::Degraded(message) => {
                write!(f, "durability lost, store is read-only: {message}")
            }
        }
    }
}

jsonio::registry! {
    /// Durability counters, dumped by the serving metrics dump.
    pub struct WalMetrics {
        /// WAL records appended since open.
        wal_appends: Counter,
        /// Syncs of the WAL since open: acks, flushes and the
        /// truncation that closes a generation.
        wal_fsyncs: Counter,
        /// Records replayed at open.
        wal_recovered_records: Counter,
        /// Torn or corrupt WAL bytes dropped at open.
        wal_truncated_bytes: Counter,
        /// Snapshots rotated since open.
        checkpoints: Counter,
    }
}

/// Serialized WAL state: generation, group-commit progress, and the
/// checkpoint trigger. One lock covers apply + append + fsync so the
/// WAL is always a faithful replay of the in-memory apply order.
struct WalState {
    generation: u64,
    /// Bytes of frames in the live generation's WAL file: the
    /// recovered valid length at open, grown by each append, 0 after a
    /// rotation. It is the offset the next appended frame lands at.
    /// The file is longer: zeros follow the frames.
    len: u64,
    /// The live WAL file's length: `len` plus its zero tail of
    /// written extents.
    allocated: u64,
    unsynced_records: u64,
    records_since_checkpoint: u64,
    /// Whether this generation's WAL file has had its directory entry
    /// made durable (`sync_dir` after the append that created it). A
    /// file fsync alone does not guarantee the *entry* survives a
    /// crash on every filesystem, so the first ack of a generation
    /// must wait for the directory sync too.
    dir_synced: bool,
}

/// A [`ProfileStore`] whose acked sightings survive crashes.
pub struct DurableStore {
    store: Arc<ProfileStore>,
    io: Arc<dyn StorageIo>,
    dir: PathBuf,
    config: DurabilityConfig,
    wal: Mutex<WalState>,
    /// This open's nonce, stamped on every [`WalAppend`].
    incarnation: u64,
    /// `wal.generation`, mirrored outside the WAL lock so status reads
    /// (`node_info`) never wait behind an append's fsync.
    live_generation: AtomicU64,
    /// A state flag that gates ingest, not a metric, so it stays
    /// Acquire/Release rather than a relaxed counter.
    degraded: AtomicBool,
    checkpoint_pending: AtomicBool,
    metrics: WalMetrics,
}

fn snapshot_name(generation: u64) -> String {
    format!("snapshot.{generation}.json")
}

fn wal_name(generation: u64) -> String {
    format!("wal.{generation}.log")
}

/// `Some(gen)` when `name` is `<prefix>.<gen>.<suffix>`.
fn parse_generation(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_prefix('.')?
        .strip_suffix(suffix)?
        .strip_suffix('.')?
        .parse()
        .ok()
}

impl DurableStore {
    /// Opens (and recovers) a durable store in `dir`.
    ///
    /// Recovery picks the highest-generation snapshot that loads
    /// cleanly (a torn or corrupt one falls back to the previous
    /// generation — with the checkpoint ordering above, a corrupt
    /// *latest* snapshot can only mean its WAL never received durable
    /// records), replays its WAL, and zeroes any torn WAL tail.
    ///
    /// Absence and corruption are the only states recovery works
    /// around: a *transient* read error (anything other than
    /// `NotFound`) fails the open instead. Falling back to an older
    /// generation — or skipping WAL replay — because a read hiccuped
    /// would let the store accept new acked writes on stale state and
    /// silently lose the unread records at the next healthy restart.
    ///
    /// # Errors
    ///
    /// A message when the directory is unusable or a snapshot/WAL
    /// read fails for any reason other than the file not existing.
    pub fn open(
        io: Arc<dyn StorageIo>,
        dir: &Path,
        store_config: StoreConfig,
        config: DurabilityConfig,
    ) -> Result<(DurableStore, RecoveryReport), String> {
        io.create_dir_all(dir)
            .map_err(|e| format!("create {}: {e}", dir.display()))?;
        let names = io
            .list(dir)
            .map_err(|e| format!("list {}: {e}", dir.display()))?;
        let mut snapshot_gens: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_generation(n, "snapshot", "json"))
            .collect();
        snapshot_gens.sort_unstable();

        // Highest-generation snapshot that actually loads; newer
        // corrupt ones are noted and skipped (defense in depth — the
        // write protocol should never produce one).
        let mut store = None;
        let mut generation = 0;
        let mut snapshot_loaded = false;
        for &gen in snapshot_gens.iter().rev() {
            let path = dir.join(snapshot_name(gen));
            match io.read(&path) {
                Ok(bytes) => match ProfileStore::from_snapshot_bytes(&bytes, store_config) {
                    Ok(loaded) => {
                        store = Some(loaded);
                        generation = gen;
                        snapshot_loaded = true;
                        break;
                    }
                    Err(_) => continue,
                },
                // Listed a moment ago but gone now (e.g. a competing
                // cleanup): treat like corruption and fall back.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                // A transient read error is not evidence the snapshot
                // is bad — refusing to open beats recovering stale
                // state and losing acked records behind its back.
                Err(e) => return Err(format!("read {}: {e}", path.display())),
            }
        }
        let store = match store {
            Some(store) => store,
            None => ProfileStore::new(store_config)?,
        };

        // Replay the matching WAL up to the first bad frame (torn
        // tail) or the first record the store rejects.
        let wal_path = dir.join(wal_name(generation));
        let mut recovered = 0u64;
        let mut truncated = 0u64;
        let mut valid_len = 0u64;
        let mut allocated = 0u64;
        let wal_bytes = match io.read(&wal_path) {
            Ok(bytes) => Some(bytes),
            // No WAL for this generation: nothing was ingested since
            // its snapshot (or the store is brand new).
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            // Skipping replay on a transient error would append new
            // records after unreplayed ones and truncate them away at
            // the next healthy open — fail loudly instead.
            Err(e) => return Err(format!("read {}: {e}", wal_path.display())),
        };
        if let Some(bytes) = wal_bytes {
            let scanned = scan(&bytes);
            for (record, &frame_end) in scanned.records.iter().zip(&scanned.frame_ends) {
                if store
                    .observe(&record.device, record.cells, record.time, record.cell)
                    .is_err()
                {
                    break;
                }
                recovered += 1;
                valid_len = frame_end;
            }
            // A zero tail is free space and stays. Anything else past
            // the replayed frames is cut off, durably, before the first
            // new append: a whole stale frame behind a torn one could
            // otherwise line up after a later append and replay.
            truncated = (nonzero_len(&bytes) as u64).saturating_sub(valid_len);
            allocated = if truncated > 0 {
                io.truncate(&wal_path, valid_len)
                    .and_then(|()| io.sync(&wal_path))
                    .map_err(|e| format!("truncate {}: {e}", wal_path.display()))?;
                valid_len
            } else {
                bytes.len() as u64
            };
        }

        let durable = DurableStore {
            store: Arc::new(store),
            io,
            dir: dir.to_path_buf(),
            config,
            wal: Mutex::new(WalState {
                generation,
                len: valid_len,
                allocated,
                unsynced_records: 0,
                records_since_checkpoint: 0,
                // Conservative: re-sync the directory on the first
                // append after any open (one cheap fsync), covering a
                // WAL whose entry never became durable before a crash.
                dir_synced: false,
            }),
            // 53 random bits: exact as a JSON number in any reader.
            incarnation: RandomState::new().build_hasher().finish() >> 11,
            live_generation: AtomicU64::new(generation),
            degraded: AtomicBool::new(false),
            checkpoint_pending: AtomicBool::new(false),
            metrics: WalMetrics::default(),
        };
        durable.metrics.wal_recovered_records.add(recovered);
        durable.metrics.wal_truncated_bytes.add(truncated);
        let report = RecoveryReport {
            generation,
            snapshot_loaded,
            recovered_records: recovered,
            truncated_bytes: truncated,
        };
        Ok((durable, report))
    }

    /// The wrapped in-memory store (reads and planning go straight
    /// through it).
    #[must_use]
    pub fn store(&self) -> &Arc<ProfileStore> {
        &self.store
    }

    /// Whether the store has lost its disk and gone read-only.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// The WAL's counters.
    #[must_use]
    pub fn metrics(&self) -> &WalMetrics {
        &self.metrics
    }

    /// Whether enough records have accumulated that the owner should
    /// schedule a [`DurableStore::checkpoint`]. Clears the pending
    /// flag only when the checkpoint actually runs, so concurrent
    /// callers schedule it once.
    #[must_use]
    pub fn take_checkpoint_due(&self) -> bool {
        if self.config.checkpoint_every == 0 || self.degraded() {
            return false;
        }
        let due = {
            let wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
            wal.records_since_checkpoint >= self.config.checkpoint_every
        };
        due && !self.checkpoint_pending.swap(true, Ordering::AcqRel)
    }

    /// Undoes [`DurableStore::take_checkpoint_due`] when the caller
    /// could not schedule the checkpoint (e.g. a full worker queue):
    /// the trigger re-arms on the next ingest.
    pub fn cancel_checkpoint_schedule(&self) {
        self.checkpoint_pending.store(false, Ordering::Release);
    }

    fn enter_degraded(&self, error: &io::Error) -> DurableError {
        self.degraded.store(true, Ordering::Release);
        DurableError::Degraded(error.to_string())
    }

    /// Ingests a batch durably: apply to memory, append to the WAL,
    /// fsync per policy, then ack. On a validation error the valid
    /// prefix is still applied *and logged* (matching
    /// [`ProfileStore::observe_batch`] semantics).
    ///
    /// Returns `(device, new version)` per sighting plus the frames
    /// this call appended.
    ///
    /// # Errors
    ///
    /// [`DurableError::Rejected`] for invalid sightings,
    /// [`DurableError::Degraded`] when the disk has failed (in-memory
    /// state may include the batch, but it is not durable and was not
    /// acked).
    pub fn observe_batch(
        &self,
        cells: usize,
        sightings: &[Sighting],
    ) -> Result<(Vec<(String, u64)>, WalAppend), DurableError> {
        if self.degraded() {
            return Err(DurableError::Degraded("data disk previously failed".into()));
        }
        let mut wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
        // Encode before applying: a sighting that cannot be framed
        // (device name over the WAL's size bound, values that do not
        // fit the wire) is rejected before it touches memory or the
        // log, so an acked record is always one recovery will replay —
        // never a poison frame that truncates the log behind it. The
        // WAL never holds a record that would fail replay, and replay
        // order equals apply order.
        let mut frames = Vec::new();
        let mut versions = Vec::with_capacity(sightings.len());
        let mut rejected = None;
        for (i, s) in sightings.iter().enumerate() {
            let frame = match encode_record(&SightingRecord {
                device: s.device.clone(),
                cells,
                time: s.time,
                cell: s.cell,
            }) {
                Ok(frame) => frame,
                Err(e) => {
                    rejected = Some(format!("sighting {i}: {e}"));
                    break;
                }
            };
            match self.store.observe(&s.device, cells, s.time, s.cell) {
                Ok(version) => {
                    frames.extend_from_slice(&frame);
                    versions.push((s.device.clone(), version));
                }
                Err(e) => {
                    rejected = Some(format!("sighting {i} ({:?}): {e}", s.device));
                    break;
                }
            }
        }
        let applied = versions.len() as u64;
        if applied > 0 {
            let path = self.dir.join(wal_name(wal.generation));
            if let Err(e) = self.write_frames(&mut wal, &path, &frames) {
                return Err(self.enter_degraded(&e));
            }
            self.metrics.wal_appends.add(applied);
            wal.unsynced_records += applied;
            wal.records_since_checkpoint += applied;
            let must_sync = match self.config.fsync {
                FsyncPolicy::Always => true,
                FsyncPolicy::Interval(n) => wal.unsynced_records >= n,
                FsyncPolicy::Never => false,
            };
            if must_sync {
                // Unless the frames opened a new extent, the file size
                // is unchanged and the sync commits only their bytes.
                if let Err(e) = self.io.sync(&path) {
                    return Err(self.enter_degraded(&e));
                }
                self.metrics.wal_fsyncs.inc();
                wal.unsynced_records = 0;
            }
            // Once per open and generation: make the WAL file's
            // directory entry durable before acking. A file sync alone
            // does not guarantee a freshly created file survives a
            // crash on every filesystem.
            if !wal.dir_synced {
                if let Err(e) = self.io.sync_dir(&self.dir) {
                    return Err(self.enter_degraded(&e));
                }
                wal.dir_synced = true;
            }
        }
        match rejected {
            Some(message) => Err(DurableError::Rejected(message)),
            None => Ok((
                versions,
                WalAppend {
                    incarnation: self.incarnation,
                    generation: wal.generation,
                    offset: wal.len - frames.len() as u64,
                    bytes: frames,
                },
            )),
        }
    }

    /// Writes `frames` at `wal.len`, first growing the file by whole
    /// zero-filled extents when they would pass its end. The next sync
    /// makes the extents durable with the frames, so only the ack that
    /// opens an extent pays for committing a new file size.
    fn write_frames(&self, wal: &mut WalState, path: &Path, frames: &[u8]) -> io::Result<()> {
        let end = wal.len + frames.len() as u64;
        if end > wal.allocated {
            let extent = EXTENT_BYTES as u64;
            let grown = wal.allocated + (end - wal.allocated).div_ceil(extent) * extent;
            let mut at = wal.allocated;
            while at < grown {
                let chunk = &ZEROS
                    [..usize::try_from(grown - at).map_or(ZEROS.len(), |n| n.min(ZEROS.len()))];
                self.io.write_at(path, at, chunk)?;
                at += chunk.len() as u64;
            }
            wal.allocated = grown;
        }
        self.io.write_at(path, wal.len, frames)?;
        wal.len = end;
        Ok(())
    }

    /// Fsyncs any unsynced WAL tail (shutdown path for the interval /
    /// never policies).
    ///
    /// # Errors
    ///
    /// [`DurableError::Degraded`] on I/O failure.
    pub fn flush(&self) -> Result<(), DurableError> {
        let mut wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
        if wal.unsynced_records == 0 {
            return Ok(());
        }
        let path = self.dir.join(wal_name(wal.generation));
        match self.io.sync(&path) {
            Ok(()) => {
                self.metrics.wal_fsyncs.inc();
                wal.unsynced_records = 0;
                Ok(())
            }
            Err(e) => Err(self.enter_degraded(&e)),
        }
    }

    /// The generation currently receiving appends.
    #[must_use]
    pub fn current_generation(&self) -> u64 {
        self.live_generation.load(Ordering::Acquire)
    }

    /// Exports up to `max_bytes` of WAL bytes from `offset` within
    /// `generation`, for shipping to a follower. Holding the WAL lock
    /// across the read gives the follower a consistent image: no
    /// append can land mid-read, so the returned bytes never end in a
    /// torn frame the owner would later complete differently.
    ///
    /// A follower starts at `(current_generation, 0)`, applies the
    /// records [`crate::wal::scan`] decodes, advances by the scan's
    /// `valid_len`, and jumps to `(generation + 1, 0)` when
    /// `end_of_generation` is set. With [`DurabilityConfig::retain_wal`]
    /// `> 0`, closed generations stay on disk long enough to be
    /// finished.
    ///
    /// # Errors
    ///
    /// A message when `generation` is ahead of the store, compacted
    /// away (the follower lagged past retention and must re-seed),
    /// `offset` lies beyond the log, or the read fails.
    pub fn export_wal(
        &self,
        generation: u64,
        offset: u64,
        max_bytes: usize,
    ) -> Result<WalSegment, String> {
        let wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
        let latest = wal.generation;
        if generation > latest {
            return Err(format!(
                "generation {generation} is ahead of this store (latest {latest})"
            ));
        }
        let path = self.dir.join(wal_name(generation));
        let read_error = |e: io::Error| match e.kind() {
            io::ErrorKind::NotFound => format!(
                "generation {generation} was compacted (latest {latest}); re-seed the follower"
            ),
            io::ErrorKind::InvalidInput => {
                format!("offset {offset} beyond WAL length for generation {generation}: {e}")
            }
            _ => format!("read {}: {e}", path.display()),
        };
        let (bytes, end_of_generation) = if generation == latest {
            // The live file is longer than its frames: read up to
            // `wal.len`, never into the zero tail.
            let Some(rest) = wal.len.checked_sub(offset) else {
                return Err(format!(
                    "offset {offset} beyond WAL length {} for generation {generation}",
                    wal.len
                ));
            };
            let take = usize::try_from(rest).map_or(max_bytes, |rest| rest.min(max_bytes));
            let bytes = if take == 0 {
                Vec::new()
            } else {
                self.io.read_at(&path, offset, take).map_err(read_error)?
            };
            (bytes, false)
        } else {
            // A closed generation was truncated to its frames before
            // the snapshot that closed it. One byte past the window
            // tells whether the window reaches its end.
            let mut bytes = self
                .io
                .read_at(&path, offset, max_bytes.saturating_add(1))
                .map_err(read_error)?;
            let end = bytes.len() <= max_bytes;
            bytes.truncate(max_bytes);
            (bytes, end)
        };
        Ok(WalSegment {
            generation,
            offset,
            bytes,
            latest_generation: latest,
            end_of_generation,
        })
    }

    /// Rotates to a new generation: durable `snapshot.{G+1}` first,
    /// then appends switch to `wal.{G+1}`, then generation `G` is
    /// removed (best-effort). Holds the WAL lock throughout so no
    /// sighting can land in both the new snapshot and the old WAL.
    ///
    /// # Errors
    ///
    /// [`DurableError::Degraded`] on I/O failure (the store flips to
    /// read-only; the old generation remains the recovery point).
    pub fn checkpoint(&self) -> Result<RecoveryReport, DurableError> {
        let result = self.checkpoint_inner();
        self.checkpoint_pending.store(false, Ordering::Release);
        result
    }

    fn checkpoint_inner(&self) -> Result<RecoveryReport, DurableError> {
        if self.degraded() {
            return Err(DurableError::Degraded("data disk previously failed".into()));
        }
        let mut wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
        let old = wal.generation;
        let new = old + 1;
        // Close the finishing generation at its frames, durably, before
        // the snapshot that retires it: a closed generation never has a
        // zero tail on disk, so a shipper reading it to the end learns
        // exactly where its frames stop.
        if wal.allocated > wal.len {
            let path = self.dir.join(wal_name(old));
            if let Err(e) = self
                .io
                .truncate(&path, wal.len)
                .and_then(|()| self.io.sync(&path))
            {
                return Err(self.enter_degraded(&e));
            }
            self.metrics.wal_fsyncs.inc();
            wal.allocated = wal.len;
        }
        let bytes = self.store.snapshot_bytes();
        let snapshot_path = self.dir.join(snapshot_name(new));
        if let Err(e) = write_atomic(self.io.as_ref(), &snapshot_path, &bytes) {
            return Err(self.enter_degraded(&e));
        }
        // The new snapshot is durable: appends may now switch. The
        // next generation's WAL file does not exist yet, so its first
        // append must sync the directory entry again.
        wal.generation = new;
        wal.len = 0;
        wal.allocated = 0;
        self.live_generation.store(new, Ordering::Release);
        wal.records_since_checkpoint = 0;
        wal.unsynced_records = 0;
        wal.dir_synced = false;
        self.metrics.checkpoints.inc();
        // The old snapshot is now garbage; removal is best-effort (a
        // leftover pair is ignored by recovery, which prefers the
        // higher generation). The old WAL outlives it by
        // `retain_wal` rotations so a lagging shipper can finish
        // reading it; generations are rotated one at a time, so
        // removing exactly the generation that just fell off the
        // retention window keeps the window bounded.
        let _ = self.io.remove(&self.dir.join(snapshot_name(old)));
        if let Some(expired) = old.checked_sub(self.config.retain_wal) {
            let _ = self.io.remove(&self.dir.join(wal_name(expired)));
        }
        let _ = self.io.sync_dir(&self.dir);
        Ok(RecoveryReport {
            generation: new,
            snapshot_loaded: true,
            recovered_records: 0,
            truncated_bytes: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemIo;

    fn dir() -> PathBuf {
        PathBuf::from("/data")
    }

    fn sighting(device: &str, time: f64, cell: usize) -> Sighting {
        Sighting {
            device: device.to_string(),
            time,
            cell,
        }
    }

    fn open_mem(io: &Arc<MemIo>, config: DurabilityConfig) -> (DurableStore, RecoveryReport) {
        let io: Arc<dyn StorageIo> = Arc::<MemIo>::clone(io);
        DurableStore::open(io, &dir(), StoreConfig::default(), config).unwrap()
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("interval:32"),
            Ok(FsyncPolicy::Interval(32))
        );
        assert!(FsyncPolicy::parse("interval:0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }

    #[test]
    fn acked_sightings_survive_a_crash() {
        let mem = Arc::new(MemIo::new());
        let (durable, report) = open_mem(&mem, DurabilityConfig::default());
        assert_eq!(report.recovered_records, 0);
        let (acked, _) = durable
            .observe_batch(4, &[sighting("alice", 1.0, 2), sighting("bob", 1.5, 0)])
            .unwrap();
        assert_eq!(acked.len(), 2);

        mem.crash(99);
        let (recovered, report) = open_mem(&mem, DurabilityConfig::default());
        assert_eq!(report.recovered_records, 2);
        assert_eq!(report.truncated_bytes, 0);
        let store = recovered.store();
        assert_eq!(store.len(), 2);
        // Versions resume past the acked ones.
        let (bumped, _) = recovered
            .observe_batch(4, &[sighting("carol", 2.0, 1)])
            .unwrap();
        let max_acked = acked.iter().map(|(_, v)| *v).max().unwrap();
        assert!(bumped[0].1 > max_acked, "versions regressed across restart");
    }

    #[test]
    fn unsynced_sightings_may_tear_but_recovery_keeps_a_clean_prefix() {
        let mem = Arc::new(MemIo::new());
        let config = DurabilityConfig {
            fsync: FsyncPolicy::Never,
            ..DurabilityConfig::default()
        };
        let (durable, _) = open_mem(&mem, config);
        for i in 0..20 {
            durable
                .observe_batch(4, &[sighting("alice", f64::from(i), (i as usize) % 4)])
                .unwrap();
        }
        mem.crash(5);
        let (recovered, report) = open_mem(&mem, config);
        assert!(report.recovered_records <= 20);
        // Whatever survived is a replayable prefix; the store is
        // consistent and accepts new sightings.
        recovered
            .observe_batch(4, &[sighting("alice", 100.0, 0)])
            .unwrap();
    }

    #[test]
    fn checkpoint_rotates_generations_and_compacts_the_wal() {
        let mem = Arc::new(MemIo::new());
        let (durable, _) = open_mem(&mem, DurabilityConfig::default());
        durable
            .observe_batch(4, &[sighting("alice", 1.0, 2), sighting("bob", 2.0, 3)])
            .unwrap();
        let report = durable.checkpoint().unwrap();
        assert_eq!(report.generation, 1);
        let names = mem.list(&dir()).unwrap();
        assert!(names.contains(&"snapshot.1.json".to_string()), "{names:?}");
        assert!(!names.contains(&"wal.0.log".to_string()), "{names:?}");
        assert!(!names.contains(&"snapshot.0.json".to_string()), "{names:?}");

        // Post-checkpoint sightings land in wal.1 and survive a crash.
        durable
            .observe_batch(4, &[sighting("carol", 3.0, 1)])
            .unwrap();
        mem.crash(11);
        let (recovered, report) = open_mem(&mem, DurabilityConfig::default());
        assert_eq!(report.generation, 1);
        assert!(report.snapshot_loaded);
        assert_eq!(report.recovered_records, 1);
        assert_eq!(recovered.store().len(), 3);
    }

    #[test]
    fn crash_during_checkpoint_never_loses_acked_records() {
        // Crash at every point of the checkpoint protocol (the MemIo
        // op count bounds it) and check all acked records recover.
        for crash_seed in 0..24u64 {
            let mem = Arc::new(MemIo::new());
            let (durable, _) = open_mem(&mem, DurabilityConfig::default());
            durable
                .observe_batch(4, &[sighting("alice", 1.0, 2), sighting("bob", 2.0, 3)])
                .unwrap();
            let _ = durable.checkpoint();
            durable
                .observe_batch(4, &[sighting("carol", 3.0, 1)])
                .unwrap();
            mem.crash(crash_seed);
            let (recovered, _) = open_mem(&mem, DurabilityConfig::default());
            assert_eq!(
                recovered.store().len(),
                3,
                "seed {crash_seed}: acked records lost"
            );
            for device in ["alice", "bob", "carol"] {
                assert!(
                    recovered.store().version(device).is_some(),
                    "seed {crash_seed}: {device} lost"
                );
            }
        }
    }

    #[test]
    fn io_failure_degrades_instead_of_crashing() {
        use crate::io::{FaultKind, FaultyIo};
        let mem = Arc::new(MemIo::new());
        let (durable, _) = {
            let faulty: Arc<dyn StorageIo> = Arc::new(FaultyIo::new(
                Arc::clone(&mem),
                // Survive open (a handful of ops), die on the first
                // ingest append.
                6,
                FaultKind::Error,
                7,
            ));
            DurableStore::open(
                faulty,
                &dir(),
                StoreConfig::default(),
                DurabilityConfig::default(),
            )
            .unwrap()
        };
        let mut failed = false;
        for i in 0..4 {
            match durable.observe_batch(4, &[sighting("alice", f64::from(i), 0)]) {
                Ok(_) => {}
                Err(DurableError::Degraded(_)) => {
                    failed = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(failed, "fault never fired");
        assert!(durable.degraded());
        // Reads keep serving.
        assert!(durable.store().len() <= 4);
        // Further ingest is refused, not panicking.
        assert!(matches!(
            durable.observe_batch(4, &[sighting("bob", 9.0, 0)]),
            Err(DurableError::Degraded(_))
        ));
        assert!(durable.degraded());
    }

    #[test]
    fn rejected_prefix_is_still_durable() {
        let mem = Arc::new(MemIo::new());
        let (durable, _) = open_mem(&mem, DurabilityConfig::default());
        let err = durable
            .observe_batch(
                4,
                &[
                    sighting("alice", 1.0, 2),
                    sighting("bob", 2.0, 99), // cell out of range
                ],
            )
            .unwrap_err();
        assert!(matches!(err, DurableError::Rejected(_)));
        mem.crash(3);
        let (recovered, report) = open_mem(&mem, DurabilityConfig::default());
        assert_eq!(report.recovered_records, 1);
        assert!(recovered.store().version("alice").is_some());
        assert!(recovered.store().version("bob").is_none());
    }

    #[test]
    fn oversize_device_is_rejected_before_it_can_poison_the_log() {
        use crate::wal::MAX_DEVICE_BYTES;
        let mem = Arc::new(MemIo::new());
        let (durable, _) = open_mem(&mem, DurabilityConfig::default());
        durable
            .observe_batch(4, &[sighting("alice", 1.0, 2)])
            .unwrap();
        let giant = "g".repeat(MAX_DEVICE_BYTES + 1);
        let err = durable
            .observe_batch(4, &[sighting("bob", 2.0, 0), sighting(&giant, 3.0, 1)])
            .unwrap_err();
        assert!(matches!(err, DurableError::Rejected(_)), "{err:?}");
        // The oversize sighting never touched memory or the log; the
        // valid prefix (bob) was applied and logged.
        assert!(durable.store().version(&giant).is_none());
        assert!(durable.store().version("bob").is_some());

        // Every record acked so far must survive recovery intact — no
        // poison frame, no truncation.
        mem.crash(17);
        let (recovered, report) = open_mem(&mem, DurabilityConfig::default());
        assert_eq!(report.recovered_records, 2);
        assert_eq!(report.truncated_bytes, 0);
        assert!(recovered.store().version("alice").is_some());
        assert!(recovered.store().version("bob").is_some());
    }

    #[test]
    fn transient_read_error_fails_open_instead_of_recovering_stale_state() {
        use crate::io::{FaultKind, FaultyIo};
        // Healthy history: a checkpointed snapshot plus a live WAL.
        let mem = Arc::new(MemIo::new());
        let (durable, _) = open_mem(&mem, DurabilityConfig::default());
        durable
            .observe_batch(4, &[sighting("alice", 1.0, 2)])
            .unwrap();
        durable.checkpoint().unwrap();
        durable
            .observe_batch(4, &[sighting("bob", 2.0, 3)])
            .unwrap();
        drop(durable);

        // Open ops: create_dir_all, list, read snapshot.1, read wal.1.
        // A transient error on either read must fail the open — not
        // fall back to an older generation or skip WAL replay.
        for fault_at in [2u64, 3] {
            let faulty: Arc<dyn StorageIo> = Arc::new(FaultyIo::new(
                Arc::clone(&mem),
                fault_at,
                FaultKind::Error,
                1,
            ));
            let result = DurableStore::open(
                faulty,
                &dir(),
                StoreConfig::default(),
                DurabilityConfig::default(),
            );
            assert!(
                result.is_err(),
                "open succeeded past a read error at op {fault_at}"
            );
        }

        // The same state opens cleanly on a healthy disk.
        let (recovered, report) = open_mem(&mem, DurabilityConfig::default());
        assert_eq!(report.generation, 1);
        assert_eq!(report.recovered_records, 1);
        assert!(recovered.store().version("alice").is_some());
        assert!(recovered.store().version("bob").is_some());
    }

    #[test]
    fn checkpoint_due_fires_once() {
        let mem = Arc::new(MemIo::new());
        let config = DurabilityConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_every: 2,
            retain_wal: 0,
        };
        let (durable, _) = open_mem(&mem, config);
        durable
            .observe_batch(4, &[sighting("alice", 1.0, 2), sighting("bob", 2.0, 3)])
            .unwrap();
        assert!(durable.take_checkpoint_due());
        assert!(!durable.take_checkpoint_due(), "double-scheduled");
        durable.checkpoint().unwrap();
        assert!(!durable.take_checkpoint_due(), "counter not reset");
    }

    #[test]
    fn export_wal_ships_a_replayable_image() {
        let mem = Arc::new(MemIo::new());
        let (durable, _) = open_mem(&mem, DurabilityConfig::default());
        durable
            .observe_batch(4, &[sighting("alice", 1.0, 2), sighting("bob", 2.0, 3)])
            .unwrap();
        assert_eq!(durable.current_generation(), 0);
        let segment = durable.export_wal(0, 0, 1 << 20).unwrap();
        assert_eq!(segment.generation, 0);
        assert_eq!(segment.offset, 0);
        assert_eq!(segment.latest_generation, 0);
        assert!(!segment.end_of_generation, "live generation never ends");
        let scan = crate::wal::scan(&segment.bytes);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.valid_len as usize, segment.bytes.len());

        // Tailing from the shipped offset picks up only new records.
        let tip = segment.bytes.len() as u64;
        assert!(durable
            .export_wal(0, tip, 1 << 20)
            .unwrap()
            .bytes
            .is_empty());
        durable
            .observe_batch(4, &[sighting("carol", 3.0, 1)])
            .unwrap();
        let tail = durable.export_wal(0, tip, 1 << 20).unwrap();
        assert_eq!(crate::wal::scan(&tail.bytes).records.len(), 1);

        // Bad coordinates are errors, not silence.
        assert!(durable.export_wal(5, 0, 64).unwrap_err().contains("ahead"));
        assert!(durable
            .export_wal(0, 1 << 30, 64)
            .unwrap_err()
            .contains("beyond"));
    }

    #[test]
    fn observe_batch_returns_the_frames_it_appended() {
        let mem = Arc::new(MemIo::new());
        let config = DurabilityConfig {
            retain_wal: 1,
            ..DurabilityConfig::default()
        };
        let appended = |durable: &DurableStore, device: &str, time: f64| {
            let (_, append) = durable
                .observe_batch(4, &[sighting(device, time, 1)])
                .unwrap();
            let exported = durable
                .export_wal(append.generation, append.offset, 1 << 20)
                .unwrap();
            assert_eq!(exported.bytes, append.bytes, "{device}");
            append
        };
        let (durable, _) = open_mem(&mem, config);
        let first = appended(&durable, "alice", 1.0);
        assert_eq!((first.generation, first.offset), (0, 0));
        let second = appended(&durable, "bob", 2.0);
        assert_eq!(second.offset, first.bytes.len() as u64);
        assert_eq!(second.incarnation, first.incarnation);
        // Reopening resumes at the recovered length, as a new
        // incarnation...
        drop(durable);
        let (durable, _) = open_mem(&mem, config);
        let third = appended(&durable, "carol", 3.0);
        assert_eq!(third.offset, second.offset + second.bytes.len() as u64);
        assert_ne!(third.incarnation, second.incarnation);
        // ...and a rotation starts the next generation at 0.
        durable.checkpoint().unwrap();
        let fourth = appended(&durable, "dave", 4.0);
        assert_eq!((fourth.generation, fourth.offset), (1, 0));
        // A batch that applies nothing appends nothing.
        let (versions, empty) = durable.observe_batch(4, &[]).unwrap();
        assert!(versions.is_empty() && empty.bytes.is_empty());
        assert_eq!(empty.offset, fourth.bytes.len() as u64);
    }

    #[test]
    fn retained_generations_let_a_lagging_follower_finish() {
        let mem = Arc::new(MemIo::new());
        let config = DurabilityConfig {
            retain_wal: 1,
            ..DurabilityConfig::default()
        };
        let (durable, _) = open_mem(&mem, config);
        durable
            .observe_batch(4, &[sighting("alice", 1.0, 2)])
            .unwrap();
        durable.checkpoint().unwrap();
        assert_eq!(durable.current_generation(), 1);
        // Generation 0 is closed but retained: a follower at (0, 0)
        // reads the remainder and learns to jump to generation 1.
        let closed = durable.export_wal(0, 0, 1 << 20).unwrap();
        assert!(closed.end_of_generation);
        assert_eq!(closed.latest_generation, 1);
        assert_eq!(crate::wal::scan(&closed.bytes).records.len(), 1);

        // One more rotation pushes generation 0 past retention.
        durable
            .observe_batch(4, &[sighting("bob", 2.0, 0)])
            .unwrap();
        durable.checkpoint().unwrap();
        assert_eq!(durable.current_generation(), 2);
        let err = durable.export_wal(0, 0, 1 << 20).unwrap_err();
        assert!(err.contains("compacted"), "{err}");
        assert!(durable.export_wal(1, 0, 1 << 20).unwrap().end_of_generation);
    }

    /// Runs `script` on a fault-free counting disk and returns how
    /// many storage operations the open plus the script issued.
    fn ops_of(script: impl FnOnce(&DurableStore)) -> u64 {
        use crate::io::{FaultKind, FaultyIo};
        let counting = Arc::new(FaultyIo::new(
            Arc::new(MemIo::new()),
            u64::MAX,
            FaultKind::Error,
            0,
        ));
        let io: Arc<dyn StorageIo> = Arc::<FaultyIo>::clone(&counting);
        let (durable, _) = DurableStore::open(
            io,
            &dir(),
            StoreConfig::default(),
            DurabilityConfig::default(),
        )
        .unwrap();
        script(&durable);
        counting.ops()
    }

    /// Opens a store whose disk dies at operation `fault_at`.
    fn open_dying(mem: &Arc<MemIo>, fault_at: u64) -> DurableStore {
        use crate::io::{FaultKind, FaultyIo};
        let io: Arc<dyn StorageIo> = Arc::new(FaultyIo::new(
            Arc::clone(mem),
            fault_at,
            FaultKind::Crash,
            0,
        ));
        DurableStore::open(
            io,
            &dir(),
            StoreConfig::default(),
            DurabilityConfig::default(),
        )
        .unwrap()
        .0
    }

    fn frame(device: &str, time: f64, cell: usize) -> Vec<u8> {
        encode_record(&SightingRecord {
            device: device.to_string(),
            cells: 4,
            time,
            cell,
        })
        .unwrap()
    }

    #[test]
    fn the_wal_grows_in_whole_extents() {
        let mem = Arc::new(MemIo::new());
        let (durable, _) = open_mem(&mem, DurabilityConfig::default());
        let wal = dir().join(wal_name(0));
        durable
            .observe_batch(4, &[sighting("alice", 1.0, 2)])
            .unwrap();
        assert_eq!(mem.read(&wal).unwrap().len(), EXTENT_BYTES);
        // Acks inside the extent leave the file size alone.
        for i in 2..50 {
            durable
                .observe_batch(4, &[sighting("alice", f64::from(i), 1)])
                .unwrap();
        }
        assert_eq!(mem.read(&wal).unwrap().len(), EXTENT_BYTES);
        // A batch past the end grows the file by as many as it needs.
        let giant = "g".repeat(4000);
        let batch: Vec<Sighting> = (0..100)
            .map(|i| sighting(&giant, f64::from(i), 0))
            .collect();
        durable.observe_batch(4, &batch).unwrap();
        assert_eq!(mem.read(&wal).unwrap().len(), 2 * EXTENT_BYTES);
        assert_eq!(
            scan(&mem.read(&wal).unwrap()).records.len(),
            149,
            "every frame scans in front of the zero tail"
        );
    }

    #[test]
    fn a_crash_between_write_and_sync_loses_only_unacked_records() {
        // The third ack's ops are its `write_at` and then its `sync`;
        // the disk dies at the latter.
        let two_acks = ops_of(|durable| {
            durable
                .observe_batch(4, &[sighting("alice", 1.0, 2)])
                .unwrap();
            durable
                .observe_batch(4, &[sighting("bob", 2.0, 3)])
                .unwrap();
        });
        for seed in 0..32 {
            let mem = Arc::new(MemIo::new());
            let durable = open_dying(&mem, two_acks + 1);
            durable
                .observe_batch(4, &[sighting("alice", 1.0, 2)])
                .unwrap();
            durable
                .observe_batch(4, &[sighting("bob", 2.0, 3)])
                .unwrap();
            let unacked = durable.observe_batch(4, &[sighting("carol", 3.0, 1)]);
            assert!(matches!(unacked, Err(DurableError::Degraded(_))));
            mem.crash(seed);
            let (recovered, report) = open_mem(&mem, DurabilityConfig::default());
            for device in ["alice", "bob"] {
                assert!(
                    recovered.store().version(device).is_some(),
                    "seed {seed}: acked {device} lost"
                );
            }
            assert!((2..=3).contains(&report.recovered_records), "seed {seed}");
            recovered
                .observe_batch(4, &[sighting("dave", 4.0, 0)])
                .unwrap();
        }
    }

    #[test]
    fn a_torn_frame_followed_by_zeros_recovers_the_prefix() {
        let mem = Arc::new(MemIo::new());
        let (durable, _) = open_mem(&mem, DurabilityConfig::default());
        let (_, acked) = durable
            .observe_batch(4, &[sighting("alice", 1.0, 2), sighting("bob", 2.0, 3)])
            .unwrap();
        drop(durable);
        // What survives of a third frame: its header and two bytes of
        // its body, then the extent's zeros.
        let wal = dir().join(wal_name(0));
        let end = acked.offset + acked.bytes.len() as u64;
        let torn = &frame("carol", 3.0, 1)[..crate::wal::HEADER_BYTES + 2];
        mem.write_at(&wal, end, torn).unwrap();
        mem.sync(&wal).unwrap();
        mem.crash(5);
        let (recovered, report) = open_mem(&mem, DurabilityConfig::default());
        assert_eq!(report.recovered_records, 2);
        assert_eq!(report.truncated_bytes, nonzero_len(torn) as u64);
        assert!(recovered.store().version("carol").is_none());
        assert_eq!(
            mem.read(&wal).unwrap().len() as u64,
            end,
            "the torn piece was cut off"
        );
    }

    #[test]
    fn a_stale_frame_beyond_a_torn_one_never_replays() {
        let mem = Arc::new(MemIo::new());
        let (durable, _) = open_mem(&mem, DurabilityConfig::default());
        let (_, acked) = durable
            .observe_batch(4, &[sighting("alice", 1.0, 2)])
            .unwrap();
        drop(durable);
        // Two unacked frames reached the disk out of order: bob's is
        // torn (its length word lost), carol's behind it is whole.
        let wal = dir().join(wal_name(0));
        let end = acked.offset + acked.bytes.len() as u64;
        let bob = frame("bob", 2.0, 3);
        mem.write_at(&wal, end + 4, &bob[4..]).unwrap();
        mem.write_at(&wal, end + bob.len() as u64, &frame("carol", 3.0, 1))
            .unwrap();
        mem.sync(&wal).unwrap();
        mem.crash(1);
        let (recovered, report) = open_mem(&mem, DurabilityConfig::default());
        assert_eq!(report.recovered_records, 1);
        // A later append exactly as long as bob's frame ends where
        // carol's stale frame starts.
        let dan = recovered
            .observe_batch(4, &[sighting("dan", 4.0, 0)])
            .unwrap()
            .1;
        assert_eq!(dan.bytes.len(), bob.len());
        mem.crash(2);
        let (recovered, report) = open_mem(&mem, DurabilityConfig::default());
        assert_eq!(report.recovered_records, 2);
        assert!(recovered.store().version("dan").is_some());
        assert!(
            recovered.store().version("carol").is_none(),
            "a never-acked stale frame replayed"
        );
    }

    #[test]
    fn a_crash_between_truncation_and_snapshot_recovers_every_acked_record() {
        let ingest = |durable: &DurableStore| {
            for (i, device) in ["alice", "bob", "carol"].into_iter().enumerate() {
                durable
                    .observe_batch(4, &[sighting(device, i as f64, i)])
                    .unwrap();
            }
        };
        // The checkpoint's first ops truncate and fsync generation 0;
        // the disk dies at the next, the snapshot's temp-file write.
        let before_checkpoint = ops_of(ingest);
        for seed in 0..16 {
            let mem = Arc::new(MemIo::new());
            let durable = open_dying(&mem, before_checkpoint + 2);
            ingest(&durable);
            assert!(durable.checkpoint().is_err());
            mem.crash(seed);
            let wal = mem.read(&dir().join(wal_name(0))).unwrap();
            let scanned = scan(&wal);
            assert_eq!(
                scanned.valid_len,
                wal.len() as u64,
                "seed {seed}: the closed generation kept its zero tail"
            );
            let (recovered, report) = open_mem(&mem, DurabilityConfig::default());
            assert_eq!(report.generation, 0, "seed {seed}");
            assert_eq!(report.recovered_records, 3, "seed {seed}");
            assert_eq!(report.truncated_bytes, 0, "seed {seed}");
            assert_eq!(recovered.store().len(), 3, "seed {seed}");
        }
    }

    /// A [`MemIo`] whose directory syncs open a directory that does
    /// not exist on the real disk, so they fail the way an `EMFILE` or
    /// `EACCES` from opening the data directory would.
    struct UnsyncableDir(MemIo);

    impl StorageIo for UnsyncableDir {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.0.read(path)
        }
        fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
            self.0.read_at(path, offset, len)
        }
        fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
            self.0.write(path, data)
        }
        fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> io::Result<()> {
            self.0.write_at(path, offset, data)
        }
        fn sync(&self, path: &Path) -> io::Result<()> {
            self.0.sync(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.0.rename(from, to)
        }
        fn sync_dir(&self, _: &Path) -> io::Result<()> {
            let missing = std::env::temp_dir()
                .join(format!("pager-missing-{}", std::process::id()))
                .join("data");
            crate::io::DiskIo.sync_dir(&missing)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            self.0.remove(path)
        }
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            self.0.create_dir_all(dir)
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
            self.0.list(dir)
        }
        fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
            self.0.truncate(path, len)
        }
    }

    #[test]
    fn a_failing_dir_sync_degrades_the_store() {
        let io: Arc<dyn StorageIo> = Arc::new(UnsyncableDir(MemIo::new()));
        let (durable, _) = DurableStore::open(
            io,
            &dir(),
            StoreConfig::default(),
            DurabilityConfig::default(),
        )
        .unwrap();
        let first = durable.observe_batch(4, &[sighting("alice", 1.0, 2)]);
        assert!(
            matches!(first, Err(DurableError::Degraded(_))),
            "acked without a durable directory entry: {first:?}"
        );
        assert!(durable.degraded());
    }

    #[test]
    fn interval_policy_groups_fsyncs() {
        let mem = Arc::new(MemIo::new());
        let config = DurabilityConfig {
            fsync: FsyncPolicy::Interval(4),
            checkpoint_every: 0,
            retain_wal: 0,
        };
        let (durable, _) = open_mem(&mem, config);
        for i in 0..8 {
            durable
                .observe_batch(4, &[sighting("alice", f64::from(i), 0)])
                .unwrap();
        }
        assert_eq!(durable.metrics().wal_fsyncs.get(), 2);
        durable.flush().unwrap();
        assert_eq!(
            durable.metrics().wal_fsyncs.get(),
            2,
            "flush with nothing unsynced"
        );
    }
}
