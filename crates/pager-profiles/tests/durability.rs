//! Durability properties: the WAL's prefix guarantee under arbitrary
//! truncation and corruption, and crash recovery across a seeded
//! matrix of injected fault schedules.
//!
//! The load-bearing invariant is the *prefix property*: whatever a
//! crash, torn write, or flipped bit does to the log's tail, `scan`
//! returns an intact prefix of the records that were appended — never
//! a reordering, never a decoded-from-garbage record, never a panic.
//! Recovery correctness (the acked-write guarantee) reduces to it.

use std::path::PathBuf;
use std::sync::Arc;

use pager_profiles::io::{FaultKind, FaultyIo, MemIo, StorageIo};
use pager_profiles::wal::{encode_record, scan, SightingRecord};
use pager_profiles::{DurabilityConfig, DurableError, DurableStore, FsyncPolicy, StoreConfig};
use proptest::prelude::*;

/// A small pool of device names covering the encoding edge cases
/// (empty, unicode, long).
const DEVICES: [&str; 6] = [
    "alice",
    "b\u{f6}b",
    "\u{4e16}\u{754c}-pager",
    "d",
    "",
    "a-device-name-long-enough-to-dominate-its-frame",
];

fn records_from(raw: &[(usize, usize, usize)]) -> Vec<SightingRecord> {
    raw.iter()
        .enumerate()
        .map(|(i, &(name, cells, cell))| SightingRecord {
            device: DEVICES[name % DEVICES.len()].to_string(),
            cells: cells % 64 + 1,
            time: i as f64 * 1.5,
            cell: cell % 64,
        })
        .collect()
}

fn encode_all(records: &[SightingRecord]) -> Vec<u8> {
    records
        .iter()
        .flat_map(|r| encode_record(r).expect("test records encode"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Encoding then scanning an intact log returns every record
    /// verbatim, with no bytes unaccounted for.
    #[test]
    fn scan_round_trips_intact_logs(
        raw in proptest::collection::vec((0usize..6, 0usize..64, 0usize..64), 0..20),
    ) {
        let records = records_from(&raw);
        let bytes = encode_all(&records);
        let scanned = scan(&bytes);
        prop_assert_eq!(&scanned.records, &records);
        prop_assert_eq!(scanned.valid_len, bytes.len() as u64);
        prop_assert_eq!(scanned.truncated_bytes, 0);
    }

    /// Cutting the log at *any* byte yields an intact record prefix:
    /// `valid_len` covers exactly the surviving records and
    /// `truncated_bytes` the torn tail.
    #[test]
    fn truncation_at_any_byte_yields_a_record_prefix(
        raw in proptest::collection::vec((0usize..6, 0usize..64, 0usize..64), 1..16),
        cut_point in 0usize..100_000,
    ) {
        let records = records_from(&raw);
        let bytes = encode_all(&records);
        let cut = cut_point % (bytes.len() + 1);
        let scanned = scan(&bytes[..cut]);
        prop_assert!(scanned.records.len() <= records.len());
        prop_assert_eq!(&scanned.records[..], &records[..scanned.records.len()]);
        prop_assert!(scanned.valid_len <= cut as u64);
        prop_assert_eq!(scanned.truncated_bytes, cut as u64 - scanned.valid_len);
        // valid_len is exactly the bytes of the records it vouches for.
        let reencoded = encode_all(&scanned.records);
        prop_assert_eq!(scanned.valid_len, reencoded.len() as u64);
    }

    /// Flipping any single bit never panics and never fabricates or
    /// reorders records: the scan still returns a prefix of the
    /// original sequence (the checksum eats the corrupt frame and
    /// everything after it).
    #[test]
    fn single_bit_flip_keeps_an_intact_prefix(
        raw in proptest::collection::vec((0usize..6, 0usize..64, 0usize..64), 1..16),
        flip in 0usize..1_000_000,
    ) {
        let records = records_from(&raw);
        let mut bytes = encode_all(&records);
        let bit = flip % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let scanned = scan(&bytes);
        prop_assert!(scanned.records.len() < records.len(),
            "a flipped bit must invalidate at least its own frame");
        prop_assert_eq!(&scanned.records[..], &records[..scanned.records.len()]);
        prop_assert!(scanned.valid_len + scanned.truncated_bytes == bytes.len() as u64);
    }
}

/// Drives one ingest run against a seeded fault schedule, crashes the
/// disk, and recovers on healthy I/O. Returns nothing — panics carry
/// the seed so any failing schedule reproduces exactly.
fn run_schedule(seed: u64) {
    let dir = PathBuf::from("/fault-data");
    let mem = Arc::new(MemIo::new());
    let faulty = Arc::new(FaultyIo::from_seed(Arc::clone(&mem), seed, 40));
    let kind = faulty.kind();
    let config = DurabilityConfig {
        fsync: FsyncPolicy::Always,
        checkpoint_every: 0,
        retain_wal: 0,
    };

    // Ingest with the fault armed. Every batch targets its own device,
    // so "batch i was acked" maps to "device d{i} must survive".
    let mut acked: Vec<String> = Vec::new();
    let opened = DurableStore::open(
        Arc::<FaultyIo>::clone(&faulty),
        &dir,
        StoreConfig::default(),
        config,
    );
    if let Ok((durable, _)) = opened {
        for i in 0..12u32 {
            let device = format!("d{i}");
            let batch = [pager_profiles::Sighting {
                device: device.clone(),
                time: f64::from(i),
                cell: i as usize % 8,
            }];
            match durable.observe_batch(8, &batch) {
                Ok(_) => acked.push(device),
                Err(DurableError::Degraded(_)) => break,
                Err(DurableError::Rejected(e)) => panic!("seed {seed}: valid batch rejected: {e}"),
            }
            if i == 6 {
                // Rotation mid-run: a fault here degrades the store
                // but must never endanger already-acked records.
                let _ = durable.checkpoint();
            }
        }
    }

    // Power cut, then reboot on a healthy disk.
    mem.crash(seed);
    let healthy: Arc<dyn StorageIo> = mem;
    let (recovered, report) = DurableStore::open(healthy, &dir, StoreConfig::default(), config)
        .unwrap_or_else(|e| panic!("seed {seed}: recovery failed on healthy disk: {e}"));

    // FlipBit is the one schedule allowed to lose acked records: the
    // corruption is silent at append time, so the ack goes out before
    // the checksum can catch it. Everything else honors the guarantee.
    if kind != FaultKind::FlipBit {
        for device in &acked {
            assert!(
                recovered.store().version(device).is_some(),
                "seed {seed} ({kind:?}, fault at op {}): acked device {device} lost \
                 (recovered {} records, truncated {} bytes)",
                faulty.fault_at(),
                report.recovered_records,
                report.truncated_bytes,
            );
        }
    }

    // Whatever survived, the store must be consistent: it accepts new
    // sightings and versions keep climbing.
    let (fresh, _) = recovered
        .observe_batch(
            8,
            &[pager_profiles::Sighting {
                device: "post-recovery".to_string(),
                time: 1e6,
                cell: 0,
            }],
        )
        .unwrap_or_else(|e| panic!("seed {seed}: recovered store refused ingest: {e}"));
    let floor = acked.len() as u64;
    assert!(
        fresh[0].1 > 0 && fresh[0].1 >= report.recovered_records.min(floor),
        "seed {seed}: version counter regressed after recovery"
    );
}

/// The acceptance matrix: 64 seeded schedules (operation index and
/// fault kind both derived from the seed) each ingesting, faulting,
/// crashing, and recovering.
#[test]
fn recovery_survives_a_seeded_fault_schedule_matrix() {
    for seed in 0..64 {
        run_schedule(seed);
    }
}

/// Drives one schedule where the fault is armed during *recovery*
/// itself: a healthy ingest run, a crash, then an open (and follow-up
/// ingest) on faulty I/O, another crash, and a final healthy open.
///
/// The property under test: a fault while recovering must never cost
/// records acked *before* the fault existed. The open either fails
/// loudly (a transient read error must not silently fall back to stale
/// state) or recovers correctly; either way the healthy reopen sees
/// every pre-fault acked record.
fn run_recovery_schedule(seed: u64) {
    let dir = PathBuf::from("/fault-recovery");
    let mem = Arc::new(MemIo::new());
    let config = DurabilityConfig {
        fsync: FsyncPolicy::Always,
        checkpoint_every: 0,
        retain_wal: 0,
    };

    // Phase 1: healthy ingest, everything acked and durable. A
    // mid-run checkpoint leaves both a snapshot and a live WAL for
    // recovery to chew on.
    {
        let healthy: Arc<dyn StorageIo> = Arc::<MemIo>::clone(&mem);
        let (durable, _) = DurableStore::open(healthy, &dir, StoreConfig::default(), config)
            .unwrap_or_else(|e| panic!("seed {seed}: clean open failed: {e}"));
        for i in 0..8u32 {
            durable
                .observe_batch(
                    8,
                    &[pager_profiles::Sighting {
                        device: format!("d{i}"),
                        time: f64::from(i),
                        cell: i as usize % 8,
                    }],
                )
                .unwrap_or_else(|e| panic!("seed {seed}: healthy ingest failed: {e}"));
            if i == 3 {
                durable
                    .checkpoint()
                    .unwrap_or_else(|e| panic!("seed {seed}: healthy checkpoint failed: {e}"));
            }
        }
    }
    mem.crash(seed);

    // Phase 2: recovery and follow-up ingest on a faulty disk.
    let faulty = Arc::new(FaultyIo::from_seed(Arc::clone(&mem), seed, 20));
    let kind = faulty.kind();
    let mut late_acked: Vec<String> = Vec::new();
    match DurableStore::open(
        Arc::<FaultyIo>::clone(&faulty),
        &dir,
        StoreConfig::default(),
        config,
    ) {
        // Refusing to open on an injected I/O error is correct: no
        // store, no new acks, nothing to lose.
        Err(_) => {}
        Ok((durable, _)) => {
            for i in 8..12u32 {
                let device = format!("d{i}");
                match durable.observe_batch(
                    8,
                    &[pager_profiles::Sighting {
                        device: device.clone(),
                        time: f64::from(i),
                        cell: i as usize % 8,
                    }],
                ) {
                    Ok(_) => late_acked.push(device),
                    Err(DurableError::Degraded(_)) => break,
                    Err(DurableError::Rejected(e)) => {
                        panic!("seed {seed}: valid batch rejected: {e}")
                    }
                }
            }
        }
    }
    mem.crash(seed ^ 0xBEEF);

    // Phase 3: healthy reopen. Pre-fault acks must always be there —
    // no recovery-time fault is allowed to touch them.
    let healthy: Arc<dyn StorageIo> = mem;
    let (recovered, report) = DurableStore::open(healthy, &dir, StoreConfig::default(), config)
        .unwrap_or_else(|e| panic!("seed {seed}: final recovery failed on healthy disk: {e}"));
    for i in 0..8u32 {
        let device = format!("d{i}");
        assert!(
            recovered.store().version(&device).is_some(),
            "seed {seed} ({kind:?}, fault at op {}): pre-fault acked device {device} lost \
             (recovered {} records, truncated {} bytes)",
            faulty.fault_at(),
            report.recovered_records,
            report.truncated_bytes,
        );
    }
    // Acks issued through the faulty disk honor the same guarantee,
    // except under FlipBit (silent corruption outruns the ack).
    if kind != FaultKind::FlipBit {
        for device in &late_acked {
            assert!(
                recovered.store().version(device).is_some(),
                "seed {seed} ({kind:?}): post-recovery acked device {device} lost"
            );
        }
    }
}

/// Recovery-time counterpart of the ingest-time matrix: 64 seeded
/// schedules where the fault fires while a previous generation is
/// being recovered.
#[test]
fn recovery_time_faults_never_lose_previously_acked_records() {
    for seed in 0..64 {
        run_recovery_schedule(seed);
    }
}
