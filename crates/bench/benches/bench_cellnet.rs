//! Throughput of the cellular-system simulator: events per run under
//! blanket and greedy planners, and estimator cost.

use cellnet::area::LocationAreaPlan;
use cellnet::mobility::RandomWalk;
use cellnet::system::{BlanketPlanner, PagingPlanner, System, SystemConfig};
use cellnet::topology::Topology;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pager_core::{greedy_strategy, Delay, Instance};
use pager_profiles::estimators;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Greedy;

impl PagingPlanner for Greedy {
    fn plan(&self, rows: &[Vec<f64>], delay: usize) -> Vec<Vec<usize>> {
        let c = rows.first().map_or(0, Vec::len);
        match Instance::from_rows(rows.to_vec()) {
            Ok(inst) => greedy_strategy(&inst, Delay::new(delay.max(1)).unwrap())
                .groups()
                .to_vec(),
            Err(_) => vec![(0..c).collect()],
        }
    }
}

fn build(horizon: f64) -> SystemConfig {
    let topology = Topology::grid(8, 8);
    let areas = LocationAreaPlan::tiles(&topology, 4, 4);
    let mut config = SystemConfig::new(topology, areas, 10);
    config.call_size = 3;
    config.paging_delay = 3;
    config.mean_call_interval = 3.0;
    config.horizon = horizon;
    config
}

fn bench_system_run(crit: &mut Criterion) {
    let mut group = crit.benchmark_group("system_run");
    group.sample_size(10);
    for (name, greedy) in [("blanket", false), ("greedy", true)] {
        group.bench_function(BenchmarkId::new(name, 200), |b| {
            b.iter(|| {
                let config = build(200.0);
                let mobility: Vec<RandomWalk> = (0..10).map(|_| RandomWalk::new(0.3)).collect();
                let mut system = System::new(config, mobility, 1);
                if greedy {
                    system.run(&Greedy)
                } else {
                    system.run(&BlanketPlanner)
                }
            });
        });
    }
    group.finish();
}

fn bench_estimators(crit: &mut Criterion) {
    let mut group = crit.benchmark_group("estimators");
    let mut rng = StdRng::seed_from_u64(3);
    for len in [1_000usize, 10_000, 100_000] {
        let history: Vec<usize> = (0..len).map(|_| rng.gen_range(0..64)).collect();
        group.bench_with_input(BenchmarkId::new("empirical", len), &history, |b, h| {
            b.iter(|| estimators::empirical(h, 64, 0.5));
        });
        group.bench_with_input(BenchmarkId::new("recency", len), &history, |b, h| {
            b.iter(|| estimators::recency_weighted(h, 64, 0.999, 0.5));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_system_run, bench_estimators);
criterion_main!(benches);
