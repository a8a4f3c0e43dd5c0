//! End-to-end pipeline tests: mobility → estimation → planning →
//! measurement, spanning `cellnet`, `pager-core` and the root planner
//! bridge.

use cellnet::area::LocationAreaPlan;
use cellnet::mobility::{empirical_distribution, HomingWalk, MobilityModel, RandomWalk};
use cellnet::system::{BlanketPlanner, System, SystemConfig};
use cellnet::topology::Topology;
use conference_call::planner::GreedyPlanner;
use conference_call::prelude::*;
use conference_call::profiles::estimators;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Movement histories estimate the true stationary distribution well
/// enough that plans made on the estimate are near-plans on the truth.
#[test]
fn estimation_supports_planning() {
    let topology = Topology::grid(4, 4);
    let mut rng = StdRng::seed_from_u64(11);
    // True long-run distribution of a homing walk.
    let home = topology.cell_at(1, 1);
    let mut model = HomingWalk::new(home, 0.6);
    let truth = empirical_distribution(&mut model, &topology, 0, 300_000, &mut rng);

    // A short history (what the system would have observed).
    let mut short = HomingWalk::new(home, 0.6);
    let mut cell = 0usize;
    let mut history = Vec::new();
    for _ in 0..3_000 {
        cell = short.next_cell(cell, &topology, &mut rng);
        history.push(cell);
    }
    let estimate = estimators::empirical(&history, topology.num_cells(), 0.5);
    let tv = estimators::total_variation(&truth, &estimate);
    assert!(tv < 0.15, "estimate too far from truth: tv = {tv}");

    // Plan on the estimate, evaluate on the truth: still beats blanket.
    let est_inst = Instance::from_rows(vec![estimate]).unwrap();
    let plan = greedy_strategy(&est_inst, Delay::new(3).unwrap());
    let truth_sum: f64 = truth.iter().sum();
    let truth_row: Vec<f64> = truth.iter().map(|p| p / truth_sum).collect();
    let truth_inst = Instance::from_rows(vec![truth_row]).unwrap();
    let ep = truth_inst.expected_paging(&plan).unwrap();
    assert!(
        ep < 0.9 * topology.num_cells() as f64,
        "planned EP {ep} should beat blanket"
    );
}

/// In the full system simulation, the greedy planner pages strictly
/// fewer cells than the blanket baseline at identical reporting cost,
/// and every call still finds all participants.
#[test]
fn greedy_beats_blanket_in_system_simulation() {
    let build = |seed: u64| {
        let topology = Topology::grid(6, 6);
        let areas = LocationAreaPlan::tiles(&topology, 3, 3);
        let mut config = SystemConfig::new(topology, areas, 8);
        config.call_size = 3;
        config.paging_delay = 3;
        config.horizon = 600.0;
        config.mean_call_interval = 3.0;
        let mobility: Vec<RandomWalk> = (0..8).map(|_| RandomWalk::new(0.3)).collect();
        System::new(config, mobility, seed)
    };
    let blanket = build(2002).run(&BlanketPlanner);
    let greedy = build(2002).run(&GreedyPlanner::default());
    assert!(blanket.calls.len() > 20, "need a meaningful sample");
    assert_eq!(blanket.usage.reports, greedy.usage.reports);
    assert_eq!(blanket.usage.searches, greedy.usage.searches);
    assert!(
        greedy.usage.pages < blanket.usage.pages,
        "greedy {} vs blanket {}",
        greedy.usage.pages,
        blanket.usage.pages
    );
    assert!(greedy.calls.iter().all(|c| c.found_all));
    // Blanket uses exactly one round; greedy uses more rounds on
    // average (that is the delay/paging trade-off).
    assert!(greedy.usage.paging_rounds > blanket.usage.paging_rounds);
}

/// The planner bridge produces strategies whose analytic EP matches
/// Monte-Carlo measurement on estimated instances.
#[test]
fn planner_bridge_consistent_with_simulation() {
    let mut rng = StdRng::seed_from_u64(31);
    let topology = Topology::line(12);
    let mut model = RandomWalk::new(0.4);
    let mut histories: Vec<Vec<usize>> = Vec::new();
    for start in [0usize, 6, 11] {
        let mut cell = start;
        let mut h = Vec::new();
        for _ in 0..2_000 {
            cell = model.next_cell(cell, &topology, &mut rng);
            h.push(cell);
        }
        histories.push(h);
    }
    let rows: Vec<Vec<f64>> = histories
        .iter()
        .map(|h| estimators::recency_weighted(h, 12, 0.999, 0.25))
        .collect();
    let inst = Instance::from_rows(rows).unwrap();
    let plan = conference_call::pager::greedy_strategy_planned(&inst, Delay::new(3).unwrap());
    let report =
        conference_call::pager::simulation::simulate(&inst, &plan.strategy, 150_000, 77).unwrap();
    assert!(
        (report.mean_cells_paged - plan.expected_paging).abs() < 0.05,
        "simulated {} vs analytic {}",
        report.mean_cells_paged,
        plan.expected_paging
    );
}
