//! Differential testing: every pair of independent implementations
//! that must agree, checked systematically over random instances.
//!
//! | engine A | engine B | why they agree |
//! |----------|----------|----------------|
//! | Fig. 1 conditional DP | prefix-savings DP | same family optimum |
//! | `d^c` exhaustive | `3^c` subset DP | both exact optima |
//! | subset DP | cell-type DP | exact optima (few types) |
//! | subset DP (exact instance) | exact exhaustive | float vs rational |
//! | signature `k = m` | conference call | same stopping rule |
//! | signature `k = 1` | yellow pages | definition |
//! | bandwidth `b = c` | unconstrained greedy | cap not binding |
//! | adaptive `d = 2` | oblivious greedy | forced second round |
//! | optimal adaptive `d = 2` | optimal oblivious | §5 remark |
//! | `m = 2, d = 2` scan | two-round DP | same family optimum |
//! | QAP encoding (`d = c`) | subset DP (`d = c`) | §5.1 reduction |

use conference_call::gen::{DistributionFamily, InstanceGenerator};
use conference_call::hardness::qap::solve_via_qap;
use conference_call::pager::adaptive::{
    adaptive_expected_paging, optimal_adaptive_expected_paging,
};
use conference_call::pager::bandwidth::greedy_strategy_bounded;
use conference_call::pager::cell_types::optimal_by_types;
use conference_call::pager::signature::{expected_paging_signature, greedy_signature};
use conference_call::pager::yellow_pages::{expected_paging_yellow, greedy_yellow};
use conference_call::pager::{fig1, greedy_strategy_planned, optimal, two_device_two_round};
use conference_call::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_instance(rng: &mut StdRng, m: usize, c: usize) -> Instance {
    let families = DistributionFamily::ALL;
    let family = families[rng.gen_range(0..families.len())];
    InstanceGenerator::new(family).generate(m, c, rng)
}

#[test]
fn fig1_vs_prefix_dp() {
    let mut rng = StdRng::seed_from_u64(101);
    for _ in 0..40 {
        let m = rng.gen_range(1..=4);
        let c = rng.gen_range(3..=12);
        let inst = random_instance(&mut rng, m, c);
        let d = rng.gen_range(1..=inst.num_cells().min(5));
        let delay = Delay::new(d).unwrap();
        let a = fig1::approximation(&inst, delay).expected_paging;
        let b = greedy_strategy_planned(&inst, delay).expected_paging;
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}

#[test]
fn exhaustive_vs_subset_dp() {
    let mut rng = StdRng::seed_from_u64(102);
    for _ in 0..15 {
        let m = rng.gen_range(1..=3);
        let c = rng.gen_range(3..=8);
        let inst = random_instance(&mut rng, m, c);
        let d = rng.gen_range(1..=inst.num_cells().min(4));
        let delay = Delay::new(d).unwrap();
        let a = optimal::optimal_exhaustive(&inst, delay)
            .unwrap()
            .expected_paging;
        let b = optimal::optimal_subset_dp(&inst, delay)
            .unwrap()
            .expected_paging;
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}

#[test]
fn subset_dp_vs_cell_types_on_structured_instances() {
    let mut rng = StdRng::seed_from_u64(103);
    for _ in 0..15 {
        // Build an instance with at most 3 distinct columns.
        let c = rng.gen_range(6..=10);
        let m = rng.gen_range(1..=2);
        let mut cols: Vec<Vec<f64>> = Vec::new();
        for _ in 0..3 {
            cols.push((0..m).map(|_| rng.gen_range(1..=9) as f64).collect());
        }
        let assignment: Vec<usize> = (0..c).map(|_| rng.gen_range(0..3)).collect();
        let mut rows = vec![vec![0.0f64; c]; m];
        for (j, &t) in assignment.iter().enumerate() {
            for i in 0..m {
                rows[i][j] = cols[t][i];
            }
        }
        for row in &mut rows {
            let total: f64 = row.iter().sum();
            for p in row.iter_mut() {
                *p /= total;
            }
        }
        let inst = Instance::from_rows(rows).unwrap();
        let d = rng.gen_range(2..=3);
        let delay = Delay::new(d).unwrap();
        let a = optimal_by_types(&inst, delay).unwrap().expected_paging;
        let b = optimal::optimal_subset_dp(&inst, delay)
            .unwrap()
            .expected_paging;
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}

#[test]
fn float_vs_exact_exhaustive() {
    use rational::Ratio;
    let mut rng = StdRng::seed_from_u64(104);
    for _ in 0..8 {
        let c = rng.gen_range(3..=6);
        let m = rng.gen_range(1..=2);
        let rows_exact: Vec<Vec<Ratio>> = (0..m)
            .map(|_| {
                let w: Vec<i64> = (0..c).map(|_| rng.gen_range(1..=9)).collect();
                let total: i64 = w.iter().sum();
                w.into_iter()
                    .map(|x| Ratio::from_fraction(x, total))
                    .collect()
            })
            .collect();
        let exact = Instance::from_rows(rows_exact).unwrap();
        let float = exact.to_f64();
        let d = rng.gen_range(2..=c.min(3));
        let delay = Delay::new(d).unwrap();
        let a = optimal::optimal_exhaustive(&exact, delay)
            .unwrap()
            .expected_paging;
        let b = optimal::optimal_exhaustive(&float, delay)
            .unwrap()
            .expected_paging;
        assert!((a.to_f64() - b).abs() < 1e-9, "{} vs {b}", a.to_f64());
    }
}

#[test]
fn signature_extremes_match_their_definitions() {
    let mut rng = StdRng::seed_from_u64(105);
    for _ in 0..20 {
        let m = rng.gen_range(2..=4);
        let c = rng.gen_range(4..=10);
        let inst = random_instance(&mut rng, m, c);
        let d = rng.gen_range(1..=4.min(inst.num_cells()));
        let delay = Delay::new(d).unwrap();
        let plan = greedy_strategy_planned(&inst, delay);
        let cc = inst.expected_paging(&plan.strategy).unwrap();
        let sig_m = expected_paging_signature(&inst, &plan.strategy, m).unwrap();
        assert!((cc - sig_m).abs() < 1e-9);
        let yp = expected_paging_yellow(&inst, &plan.strategy).unwrap();
        let sig_1 = expected_paging_signature(&inst, &plan.strategy, 1).unwrap();
        assert!((yp - sig_1).abs() < 1e-12);
        // Planner parity too.
        let a = greedy_signature(&inst, delay, m).unwrap().expected_paging;
        let b = greedy_strategy_planned(&inst, delay).expected_paging;
        assert!((a - b).abs() < 1e-9);
        let ya = greedy_signature(&inst, delay, 1).unwrap().expected_paging;
        let yb = greedy_yellow(&inst, delay).unwrap().expected_paging;
        assert!((ya - yb).abs() < 1e-12);
    }
}

#[test]
fn loose_bandwidth_cap_is_no_cap() {
    let mut rng = StdRng::seed_from_u64(106);
    for _ in 0..20 {
        let m = rng.gen_range(1..=3);
        let c = rng.gen_range(4..=12);
        let inst = random_instance(&mut rng, m, c);
        let d = rng.gen_range(2..=4.min(c));
        let delay = Delay::new(d).unwrap();
        let capped = greedy_strategy_bounded(&inst, delay, c).unwrap();
        let free = greedy_strategy_planned(&inst, delay);
        assert!((capped.expected_paging - free.expected_paging).abs() < 1e-12);
    }
}

#[test]
fn adaptive_d2_equals_oblivious() {
    let mut rng = StdRng::seed_from_u64(107);
    for _ in 0..10 {
        let m = rng.gen_range(1..=3);
        let c = rng.gen_range(4..=9);
        let inst = random_instance(&mut rng, m, c);
        let delay = Delay::new(2).unwrap();
        let heur_adaptive = adaptive_expected_paging(&inst, delay).unwrap();
        let heur_oblivious = greedy_strategy_planned(&inst, delay).expected_paging;
        assert!((heur_adaptive - heur_oblivious).abs() < 1e-9);
        let opt_adaptive = optimal_adaptive_expected_paging(&inst, delay).unwrap();
        let opt_oblivious = optimal::optimal_subset_dp(&inst, delay)
            .unwrap()
            .expected_paging;
        assert!(
            (opt_adaptive - opt_oblivious).abs() < 1e-9,
            "{opt_adaptive} vs {opt_oblivious}"
        );
    }
}

#[test]
fn two_device_scan_vs_two_round_dp() {
    let mut rng = StdRng::seed_from_u64(108);
    for _ in 0..25 {
        let c = rng.gen_range(3..=14);
        let inst = random_instance(&mut rng, 2, c);
        let scan = two_device_two_round(&inst).unwrap().expected_paging;
        let dp = greedy_strategy_planned(&inst, Delay::new(2).unwrap()).expected_paging;
        assert!((scan - dp).abs() < 1e-9, "{scan} vs {dp}");
    }
}

#[test]
fn qap_encoding_vs_subset_dp_full_delay() {
    let mut rng = StdRng::seed_from_u64(109);
    for _ in 0..8 {
        let c = rng.gen_range(3..=6);
        let inst = random_instance(&mut rng, 2, c);
        let (_, qap_ep) = solve_via_qap(&inst);
        let dp = optimal::optimal_subset_dp(&inst, Delay::new(c).unwrap())
            .unwrap()
            .expected_paging;
        assert!((qap_ep - dp).abs() < 1e-9, "{qap_ep} vs {dp}");
    }
}
