//! Profile-store benchmarks: the cost of keeping plans fresh.
//!
//! The interesting numbers are sighting-ingest throughput (the hot
//! write path: shard lock + history push + version bump), the
//! per-estimator cost of materialising a distribution (Markov pays one
//! sparse-plus-rank-one step per elapsed time unit, Laplace a single
//! normalisation), and the
//! `plan_devices` hit path where profile versions key the strategy
//! cache (only for plans priced over the inline-solve bound: a
//! cheaper one is solved on every request and never stored).

use std::collections::HashSet;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pager_core::Delay;
use pager_profiles::{Estimator, ProfileStore, Sighting, StoreConfig};
use pager_service::{PagerService, PlanSpec, ServiceConfig};
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

fn bench_ingest(crit: &mut Criterion) {
    let mut group = crit.benchmark_group("profiles_ingest");
    group.sample_size(20);
    for devices in [8usize, 64] {
        let batch = sightings(devices, 64, 3);
        group.bench_with_input(BenchmarkId::from_parameter(devices), &batch, |b, batch| {
            b.iter(|| {
                let store = ProfileStore::new(StoreConfig::default()).unwrap();
                black_box(store.observe_batch(CELLS, batch).unwrap());
            });
        });
    }
    group.finish();
}

/// Sightings of one perfbench-shaped device named `device`: mostly
/// its home cell, sometimes anywhere, until its Markov counts hold
/// exactly `nnz` distinct transitions.
fn home_device(device: &str, nnz: usize, seed: u64) -> Vec<Sighting> {
    let mut rng = StdRng::seed_from_u64(seed);
    let home = rng.gen_range(0..CELLS);
    let mut transitions = HashSet::new();
    let mut last = None;
    let mut out = Vec::new();
    while transitions.len() < nnz {
        let cell = if rng.gen_bool(0.7) {
            home
        } else {
            rng.gen_range(0..CELLS)
        };
        if let Some(from) = last {
            transitions.insert((from, cell));
        }
        last = Some(cell);
        out.push(Sighting {
            device: device.to_string(),
            cell,
            #[allow(clippy::cast_precision_loss)]
            time: out.len() as f64,
        });
    }
    out
}

fn bench_distribution(crit: &mut Criterion) {
    let mut group = crit.benchmark_group("profiles_distribution");
    let store = ProfileStore::new(StoreConfig::default()).unwrap();
    store.observe_batch(CELLS, &sightings(4, 512, 9)).unwrap();
    let now = store.latest_time().unwrap();
    for (label, estimator) in [
        ("empirical", Estimator::Empirical),
        ("recency", Estimator::Recency),
        ("markov", Estimator::Markov),
    ] {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| black_box(store.distribution("dev0", estimator, now).unwrap()));
        });
    }
    // Markov at the step cap, where perfbench's clock puts nearly
    // every plan: perfbench-shaped devices with 8 and 57 distinct
    // transitions, and "dev0" (512 uniform sightings, all 256) as the
    // sparse form's worst case.
    store
        .observe_batch(CELLS, &home_device("nnz8", 8, 5))
        .unwrap();
    store
        .observe_batch(CELLS, &home_device("nnz57", 57, 6))
        .unwrap();
    #[allow(clippy::cast_precision_loss)]
    let horizon = now + store.config().profile.markov_horizon as f64;
    for (label, device) in [("nnz8", "nnz8"), ("nnz57", "nnz57"), ("nnz256", "dev0")] {
        group.bench_function(BenchmarkId::new("markov_h32", label), |b| {
            b.iter(|| {
                black_box(
                    store
                        .distribution(device, Estimator::Markov, horizon)
                        .unwrap(),
                )
            });
        });
    }
    group.finish();
}

fn bench_plan_devices(crit: &mut Criterion) {
    let mut group = crit.benchmark_group("profiles_plan_devices");
    let service = PagerService::new(ServiceConfig::default());
    service
        .profiles()
        .observe_batch(CELLS, &sightings(3, 256, 21))
        .unwrap();
    // Delay 16 prices the greedy solve at 16·(3 + 16·16) = 4,144
    // operations, over `INLINE_SOLVE_OPS`, so the plan is stored and
    // the second request is a hit.
    let spec = PlanSpec::new(Delay::new(16).unwrap());
    let devices = ["dev0", "dev1", "dev2"];
    let now = service.profiles().latest_time();
    // Warm the strategy cache, then measure the version-keyed hit path
    // against the uncached build-and-plan path (priced over the bound,
    // so it is solved on a worker like any other costly miss).
    service
        .plan_devices(&devices, Estimator::Empirical, now, spec)
        .unwrap();
    group.bench_function(BenchmarkId::new("hit", "empirical_3x16_d16"), |b| {
        b.iter(|| {
            black_box(
                service
                    .plan_devices(&devices, Estimator::Empirical, now, spec)
                    .unwrap(),
            )
        });
    });
    let cold = spec.with_cache(false);
    group.bench_function(BenchmarkId::new("cold", "empirical_3x16_d16"), |b| {
        b.iter(|| {
            black_box(
                service
                    .plan_devices(&devices, Estimator::Empirical, now, cold)
                    .unwrap(),
            )
        });
    });
    group.finish();
    service.shutdown();
}

criterion_group!(
    benches,
    bench_ingest,
    bench_distribution,
    bench_plan_devices
);
criterion_main!(benches);
