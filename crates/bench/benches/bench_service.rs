//! Serving-layer benchmarks: what the pager-service cache buys.
//!
//! The interesting ratios are cache-hit vs cold-plan latency per tier
//! (the hit path is a shard lock + `HashMap` probe + `Arc` clone) and
//! the cost of computing the quantised fingerprint itself, which is
//! paid on every cacheable request. `service_plan_devices` times the
//! profile path in perfbench's node-mixed shape, where every plan's
//! key is dead by the next observe.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pager_core::{Delay, Instance};
use pager_profiles::{Estimator, Sighting};
use pager_service::{PagerService, PlanSpec, ServiceConfig, TierPolicy, Variant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::{DistributionFamily, InstanceGenerator};

fn instance(m: usize, c: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    InstanceGenerator::new(DistributionFamily::Dirichlet).generate(m, c, &mut rng)
}

fn bench_hit_vs_cold(crit: &mut Criterion) {
    let mut group = crit.benchmark_group("service_hit_vs_cold");
    for (label, m, c, variant) in [
        ("exact_2x8", 2usize, 8usize, Variant::Exact),
        ("greedy_3x64", 3, 64, Variant::Greedy),
    ] {
        let inst = instance(m, c, 42);
        let delay = Delay::new(3).unwrap();
        let service = PagerService::new(ServiceConfig::default());
        let spec = PlanSpec::new(delay).with_variant(variant);
        // Warm the cache once, then measure the hit path.
        service.plan(&inst, spec).unwrap();
        group.bench_function(BenchmarkId::new("hit", label), |b| {
            b.iter(|| black_box(service.plan(&inst, spec).unwrap()));
        });
        let cold = spec.with_cache(false);
        group.bench_function(BenchmarkId::new("cold", label), |b| {
            b.iter(|| black_box(service.plan(&inst, cold).unwrap()));
        });
        service.shutdown();
    }
    group.finish();
}

fn bench_fingerprint(crit: &mut Criterion) {
    let mut group = crit.benchmark_group("service_fingerprint");
    for c in [16usize, 64, 256] {
        let inst = instance(3, c, 7);
        group.bench_with_input(BenchmarkId::from_parameter(c), &inst, |b, inst| {
            b.iter(|| black_box(inst.fingerprint64(1000)));
        });
    }
    group.finish();
}

fn bench_concurrent_hits(crit: &mut Criterion) {
    let mut group = crit.benchmark_group("service_concurrent_hits");
    group.sample_size(10);
    let service = Arc::new(PagerService::new(ServiceConfig {
        workers: 4,
        policy: TierPolicy::default(),
        ..ServiceConfig::default()
    }));
    let delay = Delay::new(3).unwrap();
    // 64 distinct instances spread over the shards, all pre-planned.
    let instances: Vec<Instance> = (0..64).map(|s| instance(2, 16, s)).collect();
    for inst in &instances {
        service.plan(inst, PlanSpec::new(delay)).unwrap();
    }
    for threads in [1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let handles: Vec<_> = (0..threads)
                        .map(|t| {
                            let service = Arc::clone(&service);
                            let instances = instances.clone();
                            std::thread::spawn(move || {
                                for (i, inst) in instances.iter().enumerate() {
                                    let _ = black_box(
                                        service.plan(inst, PlanSpec::new(delay)).unwrap(),
                                    );
                                    let _ = (t, i);
                                }
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join().unwrap();
                    }
                });
            },
        );
    }
    group.finish();
    service.shutdown();
}

/// One observe, then one `plan_devices` for a conference group, per
/// iteration: an in-memory service holding 2,016 devices over 16 cells
/// in groups of 2–4, planned under delays 2–4 (perfbench's node-mixed
/// shape, without the wire and the WAL).
fn bench_plan_devices(crit: &mut Criterion) {
    const CELLS: usize = 16;
    const DEVICES: usize = 2_016;
    let mut group = crit.benchmark_group("service_plan_devices");
    let service = PagerService::new(ServiceConfig::default());
    let mut rng = StdRng::seed_from_u64(26);
    let names: Vec<String> = (0..DEVICES).map(|d| format!("dev-{d}")).collect();
    let mut groups: Vec<Vec<&str>> = Vec::new();
    let mut next = 0;
    while next < DEVICES {
        let size = rng.gen_range(2..=4usize).min(DEVICES - next);
        groups.push(
            names[next..next + size]
                .iter()
                .map(String::as_str)
                .collect(),
        );
        next += size;
    }
    let mut time = 0u32;
    for _ in 0..4 {
        let batch: Vec<Sighting> = names
            .iter()
            .map(|device| Sighting {
                device: device.clone(),
                cell: rng.gen_range(0..CELLS),
                time: f64::from(time),
            })
            .collect();
        service.observe(CELLS, &batch).unwrap();
        time += 1;
    }
    group.bench_function("observe_then_plan", |b| {
        b.iter(|| {
            let sighting = Sighting {
                device: names[rng.gen_range(0..DEVICES)].clone(),
                cell: rng.gen_range(0..CELLS),
                time: f64::from(time),
            };
            service.observe(CELLS, &[sighting]).unwrap();
            let devices = &groups[rng.gen_range(0..groups.len())];
            let spec = PlanSpec::new(Delay::new(rng.gen_range(2..=4)).unwrap());
            let now = Some(f64::from(time));
            time += 1;
            black_box(
                service
                    .plan_devices(devices, Estimator::Empirical, now, spec)
                    .unwrap(),
            )
        });
    });
    group.finish();
    service.shutdown();
}

criterion_group!(
    benches,
    bench_hit_vs_cold,
    bench_fingerprint,
    bench_concurrent_hits,
    bench_plan_devices
);
criterion_main!(benches);
