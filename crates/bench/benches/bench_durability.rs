//! Durability-layer benchmarks: what crash safety costs per sighting.
//!
//! Most I/O runs against the deterministic in-memory backend
//! ([`MemIo`]), so those numbers isolate the durability *code* — frame
//! encoding, checksumming, the WAL lock, snapshot serialization — from
//! physical disk latency. Three questions:
//!
//! 1. raw frame encode + scan throughput (the recovery path's core
//!    loop);
//! 2. ingest overhead per fsync policy, against the plain
//!    [`ProfileStore`] as the zero-durability baseline — plus one
//!    case on the real disk ([`DiskIo`], a fresh directory under the
//!    system temp directory) where each iteration is one acked
//!    sighting: a positioned write and `fdatasync`, and every few
//!    thousand acks a new zero-filled extent;
//! 3. checkpoint cost as the store grows (snapshot bytes dominate).

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pager_profiles::io::{DiskIo, MemIo};
use pager_profiles::wal::{encode_record, scan, SightingRecord};
use pager_profiles::{
    DurabilityConfig, DurableStore, FsyncPolicy, ProfileStore, Sighting, StoreConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CELLS: usize = 16;

fn sightings(devices: usize, per_device: usize, seed: u64) -> Vec<Sighting> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(devices * per_device);
    for t in 0..per_device {
        for d in 0..devices {
            out.push(Sighting {
                device: format!("dev{d}"),
                cell: rng.gen_range(0..CELLS),
                #[allow(clippy::cast_precision_loss)]
                time: t as f64,
            });
        }
    }
    out
}

fn wal_bytes(records: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(7);
    let mut bytes = Vec::new();
    for i in 0..records {
        bytes.extend_from_slice(
            &encode_record(&SightingRecord {
                device: format!("dev{}", i % 32),
                cells: CELLS,
                #[allow(clippy::cast_precision_loss)]
                time: i as f64,
                cell: rng.gen_range(0..CELLS),
            })
            .unwrap(),
        );
    }
    bytes
}

fn bench_wal_codec(crit: &mut Criterion) {
    let mut group = crit.benchmark_group("wal_codec");
    let record = SightingRecord {
        device: "device-with-a-typical-name".to_string(),
        cells: CELLS,
        time: 1234.5,
        cell: 7,
    };
    group.bench_function("encode", |b| {
        b.iter(|| black_box(encode_record(black_box(&record))));
    });
    for records in [1_000usize, 10_000] {
        let log = wal_bytes(records);
        group.bench_with_input(BenchmarkId::new("scan", records), &log, |b, log| {
            b.iter(|| black_box(scan(black_box(log)).records.len()));
        });
    }
    group.finish();
}

fn bench_durable_ingest(crit: &mut Criterion) {
    let mut group = crit.benchmark_group("durable_ingest");
    group.sample_size(20);
    let batch = sightings(32, 16, 3);
    // Zero-durability baseline: the wrapped store alone.
    group.bench_function("baseline_memory_only", |b| {
        b.iter(|| {
            let store = ProfileStore::new(StoreConfig::default()).unwrap();
            black_box(store.observe_batch(CELLS, &batch).unwrap());
        });
    });
    for (label, fsync) in [
        ("fsync_always", FsyncPolicy::Always),
        ("fsync_interval_64", FsyncPolicy::Interval(64)),
        ("fsync_never", FsyncPolicy::Never),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let io = Arc::new(MemIo::new());
                let (durable, _) = DurableStore::open(
                    io,
                    std::path::Path::new("/bench"),
                    StoreConfig::default(),
                    DurabilityConfig {
                        fsync,
                        checkpoint_every: 0,
                        retain_wal: 0,
                    },
                )
                .unwrap();
                black_box(durable.observe_batch(CELLS, &batch).unwrap());
            });
        });
    }
    let dir = std::env::temp_dir().join(format!("bench-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (durable, _) = DurableStore::open(
        Arc::new(DiskIo),
        &dir,
        StoreConfig::default(),
        DurabilityConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_every: 0,
            retain_wal: 0,
        },
    )
    .unwrap();
    let mut time = 0.0;
    group.bench_function("disk_fsync_always_one_sighting", |b| {
        b.iter(|| {
            time += 1.0;
            let sighting = Sighting {
                device: "dev0".to_string(),
                cell: 3,
                time,
            };
            black_box(durable.observe_batch(CELLS, &[sighting]).unwrap());
        });
    });
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

fn bench_checkpoint(crit: &mut Criterion) {
    let mut group = crit.benchmark_group("durable_checkpoint");
    group.sample_size(20);
    for devices in [32usize, 256] {
        let batch = sightings(devices, 32, 11);
        group.bench_with_input(BenchmarkId::from_parameter(devices), &batch, |b, batch| {
            b.iter(|| {
                let io = Arc::new(MemIo::new());
                let (durable, _) = DurableStore::open(
                    io,
                    std::path::Path::new("/bench"),
                    StoreConfig::default(),
                    DurabilityConfig::default(),
                )
                .unwrap();
                durable.observe_batch(CELLS, batch).unwrap();
                black_box(durable.checkpoint().unwrap());
            });
        });
    }
    group.finish();
}

criterion_group!(
    durability,
    bench_wal_codec,
    bench_durable_ingest,
    bench_checkpoint
);
criterion_main!(durability);
