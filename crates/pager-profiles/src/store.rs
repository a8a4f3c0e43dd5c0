//! Concurrent, versioned per-device profile store.
//!
//! Sightings stream in append-only ([`ProfileStore::observe`] /
//! [`ProfileStore::observe_batch`]); planners read planner-ready
//! distributions out ([`ProfileStore::distribution`],
//! [`ProfileStore::instance_for`]). Devices are sharded by a hash of
//! their ID so concurrent ingest and reads on different devices never
//! contend, mirroring the `pager-service` strategy cache.
//!
//! Versions are drawn from one global monotone counter and stamped
//! onto the profile on every sighting, so a device's version strictly
//! increases across its lifetime *including* eviction and
//! re-admission — exactly the property the serving layer needs to key
//! strategy-cache lookups such that a profile update can never be
//! answered with a plan computed from older data.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use jsonio::metrics::Counter;
use jsonio::Value;
use pager_core::fingerprint::{fnv1a64, FNV1A64_OFFSET};
use pager_core::Instance;

use crate::profile::{DeviceProfile, Estimator, ProfileConfig, Time};

/// One sighting on the wire: a device was seen in a cell at a time.
#[derive(Debug, Clone, PartialEq)]
pub struct Sighting {
    /// Opaque device identifier.
    pub device: String,
    /// The cell it was seen in.
    pub cell: usize,
    /// When it was seen.
    pub time: Time,
}

/// Store sizing and estimation knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Estimation parameters shared by every profile.
    pub profile: ProfileConfig,
    /// Maximum tracked devices across all shards; the least recently
    /// *sighted* device is evicted on overflow.
    pub capacity: usize,
    /// Independent shards (each behind its own lock).
    pub shards: usize,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            profile: ProfileConfig::default(),
            capacity: 65_536,
            shards: 16,
        }
    }
}

jsonio::registry! {
    /// The store's counters, as the serving metrics dump names them.
    pub struct StoreMetrics {
        /// Sightings ingested since creation (or snapshot load).
        sightings_ingested: Counter,
        /// Profiles evicted to make room.
        profile_evictions: Counter,
    }
}

/// A snapshot of the store's size, counters and version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Devices currently tracked.
    pub devices: usize,
    /// Total sightings ingested since creation (or snapshot load).
    pub sightings: u64,
    /// Profiles evicted to make room.
    pub evictions: u64,
    /// The global version counter (the largest version ever issued).
    pub version: u64,
}

struct Shard {
    map: HashMap<String, StoredProfile>,
    tick: u64,
}

struct StoredProfile {
    profile: DeviceProfile,
    last_used: u64,
}

/// The concurrent profile store.
pub struct ProfileStore {
    config: StoreConfig,
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    version: AtomicU64,
    metrics: StoreMetrics,
    /// Largest sighting time ever ingested (bits of an `f64`), used as
    /// the default "now" when callers do not supply a clock.
    latest_time: Mutex<Time>,
}

impl ProfileStore {
    /// Creates a store.
    ///
    /// # Errors
    ///
    /// A message when the profile knobs are invalid.
    pub fn new(config: StoreConfig) -> Result<ProfileStore, String> {
        config.profile.validate()?;
        let shards = config.shards.max(1);
        Ok(ProfileStore {
            per_shard_capacity: config.capacity.div_ceil(shards).max(1),
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        tick: 0,
                    })
                })
                .collect(),
            config,
            version: AtomicU64::new(0),
            metrics: StoreMetrics::default(),
            latest_time: Mutex::new(f64::NEG_INFINITY),
        })
    }

    /// The configuration the store was built with.
    #[must_use]
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Number of devices currently tracked.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("profile shard poisoned").map.len())
            .sum()
    }

    /// Size, counter and version snapshot.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            devices: self.len(),
            sightings: self.metrics.sightings_ingested.get(),
            evictions: self.metrics.profile_evictions.get(),
            version: self.latest_version(),
        }
    }

    /// The store's counters. Unlike [`ProfileStore::stats`] it locks
    /// no profile shard.
    #[must_use]
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// The global version counter: the largest version ever issued.
    /// Unlike [`ProfileStore::stats`] it locks no profile shard.
    #[must_use]
    pub fn latest_version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The largest sighting time ingested so far (`None` before the
    /// first sighting) — the store's idea of "now".
    #[must_use]
    pub fn latest_time(&self) -> Option<Time> {
        let t = *self.latest_time.lock().expect("latest_time poisoned");
        t.is_finite().then_some(t)
    }

    /// FNV-1a over the device ID: stable shard routing across runs.
    fn shard_for(&self, device: &str) -> &Mutex<Shard> {
        let hash = fnv1a64(FNV1A64_OFFSET, device.as_bytes());
        &self.shards[hash as usize % self.shards.len()]
    }

    /// Ingests one sighting of `device` (seen in `cell` of a
    /// `cells`-cell area at `time`), creating the profile on first
    /// sight. Returns the device's new version.
    ///
    /// # Errors
    ///
    /// A message on an out-of-range cell, a per-device time
    /// regression, or a `cells` value that disagrees with the
    /// device's existing profile.
    pub fn observe(
        &self,
        device: &str,
        cells: usize,
        time: Time,
        cell: usize,
    ) -> Result<u64, String> {
        if cells == 0 {
            return Err("cells must be positive".to_string());
        }
        if cell >= cells {
            return Err(format!("cell {cell} out of range for {cells} cells"));
        }
        let mut shard = self
            .shard_for(device)
            .lock()
            .expect("profile shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        if !shard.map.contains_key(device) {
            if shard.map.len() >= self.per_shard_capacity {
                if let Some(oldest) = shard
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                {
                    shard.map.remove(&oldest);
                    self.metrics.profile_evictions.inc();
                }
            }
            shard.map.insert(
                device.to_string(),
                StoredProfile {
                    profile: DeviceProfile::new(cells),
                    last_used: tick,
                },
            );
        }
        let entry = shard.map.get_mut(device).expect("just inserted");
        if entry.profile.num_cells() != cells {
            return Err(format!(
                "device {device:?} has a {}-cell profile, sighting says {cells}",
                entry.profile.num_cells()
            ));
        }
        // The version is drawn *before* the fallible observe; a gap in
        // the sequence is fine, reuse is not.
        // AcqRel: versions flow into plan-cache keys on other threads;
        // a thread that reads version v must also see the profile write
        // it tags (the Acquire loads in stats/to_json pair with this).
        let version = self.version.fetch_add(1, Ordering::AcqRel) + 1;
        entry
            .profile
            .observe(time, cell, version, &self.config.profile)?;
        entry.last_used = tick;
        drop(shard);
        self.metrics.sightings_ingested.inc();
        let mut latest = self.latest_time.lock().expect("latest_time poisoned");
        if time > *latest {
            *latest = time;
        }
        Ok(version)
    }

    /// Ingests a batch, stopping at the first bad sighting. Returns
    /// `(device, new version)` per ingested sighting.
    ///
    /// # Errors
    ///
    /// The first sighting error, prefixed with its index; sightings
    /// before it have been ingested (append-only, no rollback).
    pub fn observe_batch(
        &self,
        cells: usize,
        sightings: &[Sighting],
    ) -> Result<Vec<(String, u64)>, String> {
        let mut versions = Vec::with_capacity(sightings.len());
        for (i, s) in sightings.iter().enumerate() {
            let version = self
                .observe(&s.device, cells, s.time, s.cell)
                .map_err(|e| format!("sighting {i} ({:?}): {e}", s.device))?;
            versions.push((s.device.clone(), version));
        }
        Ok(versions)
    }

    /// The device's current version, if tracked.
    #[must_use]
    pub fn version(&self, device: &str) -> Option<u64> {
        let shard = self
            .shard_for(device)
            .lock()
            .expect("profile shard poisoned");
        shard.map.get(device).map(|e| e.profile.version())
    }

    /// The planner-ready distribution of one device at `now`, plus its
    /// version and staleness weight. `None` for untracked devices.
    #[must_use]
    pub fn distribution(
        &self,
        device: &str,
        estimator: Estimator,
        now: Time,
    ) -> Option<(Vec<f64>, u64, f64)> {
        let shard = self
            .shard_for(device)
            .lock()
            .expect("profile shard poisoned");
        let entry = shard.map.get(device)?;
        Some((
            entry
                .profile
                .distribution(estimator, now, &self.config.profile),
            entry.profile.version(),
            entry.profile.staleness_weight(now, &self.config.profile),
        ))
    }

    /// Builds a planner [`Instance`] from the named devices' profiles
    /// at `now` (default: the latest ingested time). Returns the
    /// instance, the per-device versions (same order as `devices`),
    /// and the per-device staleness weights.
    ///
    /// # Errors
    ///
    /// A message naming the first unknown device, on mixed cell
    /// counts, or when no devices are requested.
    pub fn instance_for(
        &self,
        devices: &[&str],
        estimator: Estimator,
        now: Option<Time>,
    ) -> Result<(Instance, Vec<u64>, Vec<f64>), String> {
        if devices.is_empty() {
            return Err("no devices named".to_string());
        }
        let now = now
            .or_else(|| self.latest_time())
            .ok_or_else(|| "store has no sightings and no \"now\" was given".to_string())?;
        let mut rows = Vec::with_capacity(devices.len());
        let mut versions = Vec::with_capacity(devices.len());
        let mut staleness = Vec::with_capacity(devices.len());
        let mut cells = None;
        for &device in devices {
            let (row, version, lambda) = self
                .distribution(device, estimator, now)
                .ok_or_else(|| format!("unknown device {device:?}"))?;
            match cells {
                None => cells = Some(row.len()),
                Some(c) if c != row.len() => {
                    return Err(format!(
                        "device {device:?} has {} cells, expected {c}",
                        row.len()
                    ));
                }
                Some(_) => {}
            }
            rows.push(row);
            versions.push(version);
            staleness.push(lambda);
        }
        let instance = Instance::from_rows(rows).map_err(|e| e.to_string())?;
        Ok((instance, versions, staleness))
    }

    /// Snapshot of the whole store as one JSON object (profiles plus
    /// counters), suitable for [`ProfileStore::from_json`].
    #[must_use]
    pub(crate) fn to_json(&self) -> Value {
        let mut profiles: Vec<(String, Value)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("profile shard poisoned");
            for (device, entry) in &shard.map {
                profiles.push((device.clone(), entry.profile.to_json()));
            }
        }
        // Deterministic snapshots: shard iteration order is arbitrary.
        profiles.sort_by(|a, b| a.0.cmp(&b.0));
        Value::object(vec![
            ("format", Value::from("pager-profiles/v1")),
            ("version", Value::from(self.version.load(Ordering::Acquire))),
            (
                "sightings",
                Value::from(self.metrics.sightings_ingested.get()),
            ),
            ("profiles", Value::Object(profiles)),
        ])
    }

    /// Rebuilds a store from [`ProfileStore::to_json`] output under a
    /// (possibly different) runtime configuration. Eviction counters
    /// restart at zero; the version counter resumes at least where it
    /// left off so versions stay monotone across restarts.
    ///
    /// # Errors
    ///
    /// A message on malformed payloads or invalid config.
    pub(crate) fn from_json(value: &Value, config: StoreConfig) -> Result<ProfileStore, String> {
        match value.get("format").and_then(Value::as_str) {
            Some("pager-profiles/v1") => {}
            other => return Err(format!("unknown snapshot format {other:?}")),
        }
        let store = ProfileStore::new(config)?;
        let mut max_version = crate::profile::read_u64_field(value, "snapshot", "version")?;
        let sightings = crate::profile::read_u64_field(value, "snapshot", "sightings")?;
        let profiles = value
            .get("profiles")
            .and_then(Value::as_object)
            .ok_or_else(|| "snapshot needs a \"profiles\" object".to_string())?;
        let mut latest = f64::NEG_INFINITY;
        for (device, payload) in profiles {
            let profile =
                DeviceProfile::from_json(payload).map_err(|e| format!("device {device:?}: {e}"))?;
            max_version = max_version.max(profile.version());
            if let Some((t, _)) = profile.last_sighting() {
                if t > latest {
                    latest = t;
                }
            }
            let mut shard = store
                .shard_for(device)
                .lock()
                .expect("profile shard poisoned");
            shard.tick += 1;
            let tick = shard.tick;
            shard.map.insert(
                device.clone(),
                StoredProfile {
                    profile,
                    last_used: tick,
                },
            );
        }
        store.version.store(max_version, Ordering::Release);
        store.metrics.sightings_ingested.add(sightings);
        *store.latest_time.lock().expect("latest_time poisoned") = latest;
        Ok(store)
    }

    /// The on-disk snapshot image: one JSON line ending in `\n`. The
    /// trailing newline is the end-of-snapshot marker —
    /// [`ProfileStore::from_snapshot_bytes`] rejects an image without
    /// it, so a truncated file can never load as a smaller
    /// "valid"-looking store.
    #[must_use]
    pub(crate) fn snapshot_bytes(&self) -> Vec<u8> {
        format!("{}\n", self.to_json()).into_bytes()
    }

    /// Parses a snapshot image written by
    /// [`ProfileStore::snapshot_bytes`].
    ///
    /// # Errors
    ///
    /// A message on bad UTF-8, a missing end-of-snapshot marker
    /// (truncated file), or a malformed payload.
    pub(crate) fn from_snapshot_bytes(
        bytes: &[u8],
        config: StoreConfig,
    ) -> Result<ProfileStore, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("snapshot is not UTF-8: {e}"))?;
        let line = text
            .strip_suffix('\n')
            .ok_or_else(|| "snapshot is truncated: missing trailing newline marker".to_string())?;
        let value = jsonio::parse(line).map_err(|e| format!("snapshot does not parse: {e}"))?;
        ProfileStore::from_json(&value, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::total_variation;

    fn store() -> ProfileStore {
        ProfileStore::new(StoreConfig::default()).unwrap()
    }

    #[test]
    fn shard_routing_is_pinned() {
        // Device-to-shard routing decides which lock guards a profile.
        let s = store();
        let shard_of = |d| {
            s.shards
                .iter()
                .position(|m| std::ptr::eq(m, s.shard_for(d)))
        };
        let devices = ["alice", "bob", "dev-0", "dev-1", "device-42", "", "z"];
        assert_eq!(devices.map(shard_of), [7, 4, 9, 6, 8, 5, 13].map(Some));
    }

    #[test]
    fn observe_creates_and_versions_increase() {
        let s = store();
        let v1 = s.observe("alice", 4, 0.0, 1).unwrap();
        let v2 = s.observe("bob", 4, 0.0, 2).unwrap();
        let v3 = s.observe("alice", 4, 1.0, 1).unwrap();
        assert!(v1 < v2 && v2 < v3, "{v1} {v2} {v3}");
        assert_eq!(s.version("alice"), Some(v3));
        assert_eq!(s.version("carol"), None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.stats().sightings, 3);
        assert_eq!(s.latest_time(), Some(1.0));
    }

    #[test]
    fn observe_validates() {
        let s = store();
        assert!(s.observe("a", 0, 0.0, 0).is_err());
        assert!(s.observe("a", 4, 0.0, 9).is_err());
        s.observe("a", 4, 5.0, 0).unwrap();
        assert!(s.observe("a", 4, 4.0, 0).is_err(), "time regression");
        assert!(s.observe("a", 6, 6.0, 0).is_err(), "cell-count mismatch");
        // Failed sightings do not count.
        assert_eq!(s.stats().sightings, 1);
    }

    #[test]
    fn batch_reports_offender() {
        let s = store();
        let batch = vec![
            Sighting {
                device: "a".into(),
                cell: 0,
                time: 0.0,
            },
            Sighting {
                device: "b".into(),
                cell: 7,
                time: 0.0,
            },
        ];
        let err = s.observe_batch(4, &batch).unwrap_err();
        assert!(err.contains("sighting 1") && err.contains('b'), "{err}");
        // The first sighting landed.
        assert!(s.version("a").is_some());
        assert_eq!(s.version("b"), None);
    }

    #[test]
    fn instance_for_builds_planner_input() {
        let s = store();
        for t in 0..50 {
            s.observe("a", 3, f64::from(t), 0).unwrap();
            s.observe("b", 3, f64::from(t), (t as usize) % 3).unwrap();
        }
        let (inst, versions, staleness) = s
            .instance_for(&["a", "b"], Estimator::Empirical, None)
            .unwrap();
        assert_eq!(inst.num_devices(), 2);
        assert_eq!(inst.num_cells(), 3);
        assert!(inst.prob(0, 0) > 0.9);
        assert_eq!(versions.len(), 2);
        assert!(staleness.iter().all(|&l| l > 0.9));
        assert!(s
            .instance_for(&["a", "nobody"], Estimator::Empirical, None)
            .unwrap_err()
            .contains("nobody"));
        assert!(s.instance_for(&[], Estimator::Empirical, None).is_err());
    }

    #[test]
    fn eviction_is_lru_and_counted() {
        let s = ProfileStore::new(StoreConfig {
            capacity: 2,
            shards: 1,
            ..StoreConfig::default()
        })
        .unwrap();
        s.observe("a", 2, 0.0, 0).unwrap();
        s.observe("b", 2, 1.0, 0).unwrap();
        s.observe("a", 2, 2.0, 1).unwrap(); // refresh a: b is now LRU
        s.observe("c", 2, 3.0, 0).unwrap(); // evicts b
        assert_eq!(s.stats().evictions, 1);
        assert!(s.version("b").is_none());
        let va = s.version("a").unwrap();
        // Re-admitted b keeps drawing larger versions.
        let vb = s.observe("b", 2, 4.0, 0).unwrap();
        assert!(vb > va);
    }

    #[test]
    fn snapshot_round_trip() {
        let s = store();
        for t in 0..20 {
            s.observe("a", 4, f64::from(t), (t as usize) % 4).unwrap();
            s.observe("b", 4, f64::from(t), 0).unwrap();
        }
        let snap = s.to_json();
        let back = ProfileStore::from_json(&snap, StoreConfig::default()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.stats().sightings, 40);
        assert_eq!(back.latest_time(), Some(19.0));
        let (a, _, _) = s.distribution("a", Estimator::Markov, 20.0).unwrap();
        let (b, _, _) = back.distribution("a", Estimator::Markov, 20.0).unwrap();
        assert!(total_variation(&a, &b) < 1e-15);
        // Snapshots serialise deterministically.
        assert_eq!(snap.to_string(), back.to_json().to_string());
        // Versions resume past the snapshot: new sightings stay monotone.
        let v = back.observe("a", 4, 20.0, 0).unwrap();
        assert!(v > s.stats().version);
        assert!(ProfileStore::from_json(
            &jsonio::parse(r#"{"format":"bogus"}"#).unwrap(),
            StoreConfig::default()
        )
        .is_err());
    }

    /// The `pager-profiles/v1` image of a small store, pinned byte for
    /// byte: "empty" has an all-zero Markov count matrix (one
    /// sighting), "single" one nonzero transition, and "multi" several
    /// transitions in several rows, a repeated one among them. However
    /// a profile holds its counts, the file it writes must not change.
    #[test]
    fn snapshot_bytes_are_pinned() {
        let s = store();
        s.observe("empty", 3, 1.0, 2).unwrap();
        s.observe("single", 3, 1.0, 0).unwrap();
        s.observe("single", 3, 2.5, 2).unwrap();
        for (t, cell) in [0, 1, 1, 2, 0, 1].into_iter().enumerate() {
            s.observe("multi", 3, 3.0 + t as f64, cell).unwrap();
        }
        let image = String::from_utf8(s.snapshot_bytes()).unwrap();
        let pinned = concat!(
            r#"{"format":"pager-profiles/v1","version":9,"sightings":9,"profiles":{"#,
            r#""empty":{"cells":3,"version":1,"sightings":1,"counts":[0.0,0.0,1.0],"#,
            r#""recency":[0.0,0.0,1.0],"markov":[[0,0,0],[0,0,0],[0,0,0]],"#,
            r#""last_time":1.0,"last_cell":2},"#,
            r#""multi":{"cells":3,"version":9,"sightings":6,"counts":[2.0,3.0,1.0],"#,
            r#""recency":[1.7237809375,2.6718812499999993,0.9025],"#,
            r#""markov":[[0,2,0],[0,1,1],[1,0,0]],"last_time":8.0,"last_cell":1},"#,
            r#""single":{"cells":3,"version":3,"sightings":2,"counts":[1.0,0.0,1.0],"#,
            r#""recency":[0.95,0.0,1.0],"markov":[[0,0,1],[0,0,0],[0,0,0]],"#,
            r#""last_time":2.5,"last_cell":2}}}"#,
            "\n"
        );
        assert_eq!(image, pinned);
        // A loaded image writes itself back unchanged.
        let back = ProfileStore::from_snapshot_bytes(image.as_bytes(), StoreConfig::default());
        assert_eq!(back.unwrap().snapshot_bytes(), image.as_bytes());
    }

    #[test]
    fn truncated_snapshot_never_loads_as_empty_but_valid() {
        let s = store();
        s.observe("x", 3, 1.0, 2).unwrap();
        let image = s.snapshot_bytes();
        // Any strict prefix must be rejected — in particular the
        // prefix missing only the newline marker, whose JSON still
        // parses.
        let no_marker = &image[..image.len() - 1];
        assert!(jsonio::parse(std::str::from_utf8(no_marker).unwrap()).is_ok());
        let err = ProfileStore::from_snapshot_bytes(no_marker, StoreConfig::default())
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        for cut in 0..image.len() {
            assert!(
                ProfileStore::from_snapshot_bytes(&image[..cut], StoreConfig::default()).is_err(),
                "prefix of {cut} bytes loaded"
            );
        }
        // The full image loads.
        let back = ProfileStore::from_snapshot_bytes(&image, StoreConfig::default()).unwrap();
        assert_eq!(back.version("x"), s.version("x"));
    }

    #[test]
    fn malformed_numeric_fields_get_descriptive_errors() {
        let s = store();
        s.observe("x", 3, 1.0, 2).unwrap();
        let good = s.to_json().to_string();
        let cases = [
            // (field replacement, substring the error must carry)
            (r#""version":1"#, r#""version":-1"#, "non-negative integer"),
            (r#""version":1"#, r#""version":1.5"#, "non-negative integer"),
            (
                r#""version":1"#,
                r#""version":99999999999999999999"#,
                "non-negative integer",
            ),
            (
                r#""sightings":1"#,
                r#""sightings":-3"#,
                "non-negative integer",
            ),
            (
                r#""sightings":1"#,
                r#""sightings":"many""#,
                "non-negative integer",
            ),
        ];
        for (from, to, needle) in cases {
            let bad = good.replacen(from, to, 2);
            assert_ne!(bad, good, "replacement {to:?} did not apply");
            let err =
                ProfileStore::from_json(&jsonio::parse(&bad).unwrap(), StoreConfig::default())
                    .map(|_| ())
                    .unwrap_err();
            assert!(err.contains(needle), "{to}: error was {err:?}");
            assert!(err.contains("got"), "{to}: error hides the value: {err:?}");
        }
        // A malformed per-profile row names the device.
        let bad_row = good.replacen(r#""counts":[0.0,"#, r#""counts":[-7.0,"#, 1);
        assert_ne!(bad_row, good);
        let err =
            ProfileStore::from_json(&jsonio::parse(&bad_row).unwrap(), StoreConfig::default())
                .map(|_| ())
                .unwrap_err();
        assert!(err.contains("\"x\""), "{err}");
        assert!(err.contains("counts"), "{err}");
    }

    #[test]
    fn concurrent_ingest_is_safe_and_monotone() {
        let s = std::sync::Arc::new(store());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    let device = format!("dev{t}");
                    let mut last = 0u64;
                    for i in 0..500 {
                        let v = s
                            .observe(&device, 8, f64::from(i), (i as usize) % 8)
                            .unwrap();
                        assert!(v > last, "version regressed");
                        last = v;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.stats().sightings, 4000);
        assert_eq!(s.stats().version, 4000);
        assert_eq!(s.len(), 8);
    }
}
